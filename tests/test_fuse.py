"""Fused vs unfused byte-identity: the macro-op fusion contract.

``MachineConfig(fused=...)`` selects an execution tier, never a
behaviour: the fused-block interpreter (:mod:`repro.sim.fuse`) may only
elide engine round trips the kernel would have performed with nothing in
between.  These tests enforce the contract end to end — ``SimStats``
rows, retired-op traces, and :mod:`repro.obs` metric snapshots must
match character for character across both tiers, for all six workloads,
under the sanitizer, under a random fault plan, and through a
checkpoint/replay round-trip.  Each of those runs at 2 cores, where
advances are mostly refused, and at 1 core, where the kernel is idle
between ops and versioned ops retire inside fused blocks.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import pytest

from repro import FaultSpec, Machine, MachineConfig, Task
from repro.config import TABLE2
from repro.errors import SimulationError
from repro.harness.presets import Scale
from repro.harness.sweeps import execute, irregular_spec, regular_spec
from repro.faults.spec import random_plan
from repro.ostruct import isa
from repro.recovery import RecoveryPolicy
from repro.runtime.task import OpTrace
from repro.sim import fuse
from repro.sim.machine import add_machine_observer, remove_machine_observer
from repro.sim.trace import Tracer
from repro.workloads import linked_list
from repro.workloads.opgen import READ_INTENSIVE, generate_ops, initial_keys

#: Tiny scale so the six-workload identity matrix stays fast.
TINY = Scale(
    name="tiny",
    small_elements=20,
    large_elements=40,
    n_ops=24,
    sens_ops=16,
    matmul_small=4,
    matmul_large=6,
    lev_small=6,
    lev_large=10,
    fig8_elements=40,
    fig8_ops=24,
    core_counts=(2, 4),
    max_cores=4,
    l1_sizes_kib=(8, 32),
    latencies=(2, 10),
    gc_ops=40,
)

IRREGULAR = ("linked_list", "binary_tree", "hash_table", "rb_tree")
REGULAR = ("matmul", "levenshtein")


def _spec(bench: str, config: MachineConfig, variant: str, cores: int):
    if bench in IRREGULAR:
        return irregular_spec(bench, config, TINY, "small", "4R-1W", variant, cores)
    return regular_spec(bench, config, TINY, "small", variant, cores)


def _row(spec) -> str:
    return json.dumps(execute(spec).to_json(), sort_keys=True)


def _pair(bench: str, config: MachineConfig, variant: str, cores: int):
    """Serialized result rows for both tiers of the same run."""
    fused = _row(_spec(bench, config.with_fused(True), variant, cores))
    unfused = _row(_spec(bench, config.with_fused(False), variant, cores))
    return fused, unfused


def _fault_outcome(config: MachineConfig, fused: bool, cores: int) -> tuple:
    """A faulted linked-list run's row, or how it degraded."""
    try:
        row = execute(_spec("linked_list", config.with_fused(fused), "versioned", cores))
    except SimulationError as exc:
        return ("degraded", type(exc).__name__, str(exc))
    return ("ok", json.dumps(row.to_json(), sort_keys=True))


class TestByteIdentity:
    @pytest.mark.parametrize("bench", IRREGULAR + REGULAR)
    @pytest.mark.parametrize(
        "variant,cores", [("unversioned", 1), ("versioned", 1), ("versioned", 4)]
    )
    def test_all_workloads_both_tiers(self, bench, variant, cores):
        fused, unfused = _pair(bench, TABLE2, variant, cores)
        assert fused == unfused

    @pytest.mark.parametrize("bench", ("linked_list", "matmul"))
    def test_checked_sanitizer_runs(self, bench):
        config = dataclasses.replace(TABLE2, checked=True)
        fused, unfused = _pair(bench, config, "versioned", 2)
        assert fused == unfused

    @pytest.mark.parametrize("bench", ("hash_table", "levenshtein"))
    def test_metric_snapshots(self, bench):
        fused, unfused = _pair(bench, TABLE2.with_metrics(True), "versioned", 2)
        assert fused == unfused
        # The rows actually carry a metrics snapshot (not two Nones).
        assert '"metrics"' in fused

    @pytest.mark.parametrize("seed", (7, 19, 20180523))
    def test_random_fault_plan(self, seed):
        # A starvation plan may legitimately degrade into
        # FreeListExhausted (the stress harness tallies those); the
        # fusion contract then requires the *degradation* to be
        # identical too, post-mortem wait graph and all.
        config = TABLE2.with_faults(*random_plan(seed, n_ops=40))
        assert _fault_outcome(config, True, 2) == _fault_outcome(config, False, 2)


class TestTraceIdentity:
    def _traced_run(self, config: MachineConfig) -> tuple[str, list[str]]:
        state: dict = {}

        def observe(machine) -> None:
            state["tracer"] = Tracer(machine, capacity=1 << 14)

        init = initial_keys(TINY.small_elements, TINY.small_elements * 4, TINY.seed)
        ops = generate_ops(TINY.n_ops, READ_INTENSIVE, TINY.small_elements * 4, TINY.seed)
        add_machine_observer(observe)
        try:
            run = linked_list.run_versioned(config, init, ops, 2)
        finally:
            remove_machine_observer(observe)
        tracer = state["tracer"]
        events = [str(e) for e in tracer.events()]
        assert tracer.recorded == len(events)  # nothing evicted
        return json.dumps(run.stats.snapshot(), sort_keys=True), events

    def test_retired_op_trace_identical(self):
        rows_f, events_f = self._traced_run(TABLE2.with_fused(True))
        rows_u, events_u = self._traced_run(TABLE2.with_fused(False))
        assert rows_f == rows_u
        assert events_f == events_u
        assert events_f  # the trace is non-trivial


class TestCheckpointReplay:
    def test_round_trip_matches_both_tiers(self, tmp_path):
        init = initial_keys(TINY.small_elements, TINY.small_elements * 4, TINY.seed)
        ops = generate_ops(48, READ_INTENSIVE, TINY.small_elements * 4, TINY.seed)

        def run_fn(cfg):
            return linked_list.run_versioned(cfg, init, ops, 2)

        def rows(directory, config) -> str:
            run, report = RecoveryPolicy(directory, 32).execute(run_fn, config)
            return json.dumps(run.stats.snapshot(), sort_keys=True)

        ref_fused = rows(tmp_path / "f", TABLE2.with_fused(True))
        ref_unfused = rows(tmp_path / "u", TABLE2.with_fused(False))
        assert ref_fused == ref_unfused

        crashed = TABLE2.with_faults(FaultSpec(kind="crash-machine", at=90))
        run, report = RecoveryPolicy(tmp_path / "c", 32).execute(run_fn, crashed)
        assert report.completed
        assert report.restores >= 1
        assert json.dumps(run.stats.snapshot(), sort_keys=True) == ref_fused


def _in_fused_block() -> bool:
    """True when called from inside a core's fused-block interpreter."""
    frame = sys._getframe(1)
    while frame is not None:
        code = frame.f_code
        if code.co_name == "run_block" and code.co_filename == fuse.__file__:
            return True
        frame = frame.f_back
    return False


class TestOneCoreVersioned:
    """1 core: versioned ops retire inside fused blocks.

    Their subscribers (sanitizer, metrics, faults, checkpoint markers,
    the watchdog's progress count) then run mid-block, which the 2-core
    cases above barely reach.
    """

    @pytest.mark.parametrize("bench", ("linked_list", "matmul"))
    def test_checked_sanitizer_runs(self, bench):
        config = dataclasses.replace(TABLE2, checked=True)
        fused, unfused = _pair(bench, config, "versioned", 1)
        assert fused == unfused

    def test_subscribers_see_exact_stats_mid_block(self):
        # A block batches its conventional-op counters; it must flush
        # them before each versioned op, whose subscribers may read them.
        def seen(config: MachineConfig) -> list:
            log: list = []

            def observe(machine) -> None:
                stats = machine.stats

                def on_op(name, args, result, exc) -> None:
                    log.append((
                        name, machine.sim.now, stats.compute_ops, stats.loads,
                        stats.stores, stats.l1_hits, stats.versioned_ops,
                    ))

                machine.events.subscribe("op", on_op)

            add_machine_observer(observe)
            try:
                execute(_spec("linked_list", config, "versioned", 1))
            finally:
                remove_machine_observer(observe)
            return log

        fused = seen(TABLE2.with_fused(True))
        assert fused and fused == seen(TABLE2.with_fused(False))

    def test_retire_subscriber_attached_inside_a_versioned_op(self):
        # Subscribers run inside a versioned op, so one may (de)attach a
        # retire subscriber mid-block; the block must notice both.
        def retired(config: MachineConfig) -> list:
            log: list = []

            def on_retire(core, task, op, latency, stalled) -> None:
                log.append((core, task, op, latency, stalled))

            def observe(machine) -> None:
                def on_tick(ordinal: int) -> None:
                    if ordinal == 40:
                        machine.events.subscribe("retire", on_retire)
                    elif ordinal == 120:
                        machine.events.unsubscribe("retire", on_retire)

                machine.events.subscribe("tick", on_tick)

            add_machine_observer(observe)
            try:
                execute(_spec("linked_list", config, "versioned", 1))
            finally:
                remove_machine_observer(observe)
            return log

        fused = retired(TABLE2.with_fused(True))
        assert fused and fused == retired(TABLE2.with_fused(False))

    @pytest.mark.parametrize("bench", ("hash_table", "levenshtein"))
    def test_metric_snapshots(self, bench):
        fused, unfused = _pair(bench, TABLE2.with_metrics(True), "versioned", 1)
        assert fused == unfused
        assert '"metrics"' in fused

    @pytest.mark.parametrize("seed", (7, 19, 20180523))
    def test_random_fault_plan(self, seed):
        config = TABLE2.with_faults(*random_plan(seed, n_ops=40))
        assert _fault_outcome(config, True, 1) == _fault_outcome(config, False, 1)

    @pytest.mark.parametrize("bench", ("linked_list", "rb_tree"))
    def test_watchdog_armed(self, bench):
        # The watchdog reads machine.retired_ops, which a block batches;
        # a 64-cycle budget ticks it many times per block-sized run.
        fused, unfused = _pair(bench, TABLE2.with_watchdog(64), "versioned", 1)
        assert fused == unfused

    def test_checkpoint_and_crash_inside_fused_blocks(self, tmp_path):
        init = initial_keys(TINY.small_elements, TINY.small_elements * 4, TINY.seed)
        ops = generate_ops(48, READ_INTENSIVE, TINY.small_elements * 4, TINY.seed)
        crash_at = 90
        where: dict[int, bool] = {}

        def observe(machine) -> None:
            def on_tick(ordinal: int) -> None:
                if ordinal % 32 == 0 or ordinal == crash_at:
                    where.setdefault(ordinal, _in_fused_block())

            machine.events.subscribe("tick", on_tick)

        def run_fn(cfg):
            return linked_list.run_versioned(cfg, init, ops, 1)

        def rows(directory, config) -> str:
            run, report = RecoveryPolicy(directory, 32).execute(run_fn, config)
            assert report.completed
            return json.dumps(run.stats.snapshot(), sort_keys=True)

        add_machine_observer(observe)
        try:
            ref_fused = rows(tmp_path / "f", TABLE2.with_fused(True))
            # The markers and the crash below land on ticks of ops that
            # a fused block retired.
            assert where and all(where.values()), where
            assert crash_at in where
            ref_unfused = rows(tmp_path / "u", TABLE2.with_fused(False))
            assert ref_fused == ref_unfused

            crashed = TABLE2.with_faults(FaultSpec(kind="crash-machine", at=crash_at))
            for fused in (True, False):
                run, report = RecoveryPolicy(tmp_path / f"c{fused}", 32).execute(
                    run_fn, crashed.with_fused(fused)
                )
                assert report.completed
                assert report.restores >= 1
                assert json.dumps(run.stats.snapshot(), sort_keys=True) == ref_fused
        finally:
            remove_machine_observer(observe)


class TestFusionMachinery:
    def _caught_machine(self, config: MachineConfig):
        caught: list = []
        add_machine_observer(caught.append)
        try:
            init = initial_keys(TINY.small_elements, TINY.small_elements * 4, TINY.seed)
            ops = generate_ops(TINY.n_ops, READ_INTENSIVE, TINY.small_elements * 4, TINY.seed)
            linked_list.run_versioned(config, init, ops, 1)
        finally:
            remove_machine_observer(caught.append)
        return caught[-1]

    def test_fuse_stats_telemetry(self):
        m = self._caught_machine(TABLE2.with_fused(True))
        fs = m.fuse_stats.as_dict()
        assert fs["blocks"] > 0
        assert fs["ops"] >= fs["blocks"]
        assert fs["fused_ops"] == fs["ops"] - fs["event_breaks"]
        assert fs["blocks"] >= fs["event_breaks"] + fs["op_breaks"] - 1

    def test_versioned_ops_fuse_at_one_core(self):
        # Counts, not timing: on one core every op of every task retires
        # inside one block, so the run costs two engine events per task
        # (its begin and its first resume) instead of one per op.
        fused = self._caught_machine(TABLE2.with_fused(True))
        unfused = self._caught_machine(TABLE2.with_fused(False))
        assert fused.stats.versioned_ops == unfused.stats.versioned_ops == 440
        assert fused.retired_ops == unfused.retired_ops == 1165
        assert unfused.sim.executed_total == 1213
        assert fused.sim.executed_total == 48
        assert fused.fuse_stats.as_dict() == {
            "blocks": 24,
            "ops": 1165,
            "fused_ops": 1165,
            "event_breaks": 0,
            "op_breaks": 0,
        }

    def test_unfused_machine_runs_no_blocks(self):
        m = self._caught_machine(TABLE2.with_fused(False))
        assert all(v == 0 for v in m.fuse_stats.as_dict().values())
        assert all(core._run_block is None for core in m.cores)

    def test_optrace_body_replays_and_fuses(self):
        ops = [
            isa.compute(6),
            isa.store(0x40, 7),
            isa.load(0x40),
            isa.compute(3),
            isa.store(0x80, 9),
        ]

        def run(config: MachineConfig):
            m = Machine(config)
            task = Task(1, ops, label="static")
            assert isinstance(task.body, OpTrace)
            m.submit([task])
            m.run()
            return m

        fused = run(MachineConfig(num_cores=1, fused=True))
        unfused = run(MachineConfig(num_cores=1, fused=False))
        assert fused.sim.now == unfused.sim.now
        assert fused.mem == unfused.mem == {0x40: 7, 0x80: 9}
        assert json.dumps(fused.stats.snapshot(), sort_keys=True) == json.dumps(
            unfused.stats.snapshot(), sort_keys=True
        )
        # The static trace went through the interpreter as one block.
        assert fused.fuse_stats.blocks >= 1
        assert fused.fuse_stats.ops == 5
