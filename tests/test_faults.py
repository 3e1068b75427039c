"""Tests for the deterministic fault-injection layer (repro.faults).

Covers the fault vocabulary (spec validation, seeded random plans), the
machine-tier injector for every fault kind, allocation backpressure with
emergency collection, and the FreeListExhausted terminal edges: bounded
refill budgets under all six workloads, and the "nothing reclaimable"
case that must carry a wait-graph report.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import (
    FaultSpec,
    FreeListExhausted,
    Machine,
    MachineConfig,
    Task,
    Versioned,
    random_plan,
)
from repro.config import TABLE2
from repro.errors import ConfigError
from repro.faults import KINDS, TRANSPARENT_KINDS
from repro.faults.spec import validate_plan
from repro.workloads import (
    binary_tree,
    hash_table,
    levenshtein,
    linked_list,
    matmul,
    opgen,
    rb_tree,
)

IRREGULAR = {
    "linked_list": linked_list,
    "binary_tree": binary_tree,
    "hash_table": hash_table,
    "rb_tree": rb_tree,
}


def faulted_config(*faults, **overrides) -> MachineConfig:
    base = dict(
        checked=True,
        free_list_blocks=64,
        refill_blocks=16,
        free_list_refills=2,
        gc_watermark=8,
        watchdog_cycles=20_000,
        watchdog_backoff_cycles=64,
        faults=tuple(faults),
    )
    base.update(overrides)
    return dataclasses.replace(TABLE2, **base)


def run_irregular(name: str, cfg: MachineConfig, *, seed=7, n_ops=48,
                  mix=opgen.WRITE_INTENSIVE):
    mod = IRREGULAR[name]
    initial = opgen.initial_keys(24, 96, seed)
    ops = opgen.generate_ops(n_ops, mix, 96, seed)
    run = mod.run_versioned(cfg, initial, ops, 4)
    expected, _ = opgen.reference_results(initial, ops)
    return run, list(expected)


# ---------------------------------------------------------------------------
# Fault vocabulary.
# ---------------------------------------------------------------------------


class TestFaultSpec:
    def test_valid_kinds(self):
        for kind in KINDS:
            FaultSpec(kind=kind, at=3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            FaultSpec(kind="set-cpu-on-fire")

    def test_bad_fields_rejected(self):
        with pytest.raises(ConfigError):
            FaultSpec(kind="drop-wake", at=0)
        with pytest.raises(ConfigError):
            FaultSpec(kind="drop-wake", span=0)
        with pytest.raises(ConfigError):
            FaultSpec(kind="pause-gc", value=-1)

    def test_validate_plan_rejects_non_spec(self):
        with pytest.raises(ConfigError):
            validate_plan(("drop-wake",))

    def test_frozen_and_deterministic_repr(self):
        f = FaultSpec(kind="pause-gc", at=5, value=100)
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.at = 9
        assert repr(f) == repr(FaultSpec(kind="pause-gc", at=5, value=100))

    def test_config_validates_plan(self):
        with pytest.raises(ConfigError):
            MachineConfig(faults=("not-a-spec",))

    def test_random_plan_deterministic_and_transparent(self):
        a = random_plan(1234, n_ops=100)
        b = random_plan(1234, n_ops=100)
        assert a == b
        assert all(f.kind in TRANSPARENT_KINDS for f in a)
        assert random_plan(1234, n_ops=100) != random_plan(4321, n_ops=100) or not a

    def test_random_plan_abort_needs_task_ids(self):
        plans = [
            random_plan(s, n_ops=50, kinds=("abort-task",), task_ids=(1, 2))
            for s in range(20)
        ]
        specs = [f for p in plans for f in p]
        assert specs, "abort faults should be drawn"
        assert all(f.kind == "abort-task" and f.arg in (1, 2) for f in specs)
        assert all(
            not random_plan(s, n_ops=50, kinds=("abort-task",))
            for s in range(20)
        ), "no task ids -> no abort faults"


# ---------------------------------------------------------------------------
# Machine-tier injection: transparent kinds.
# ---------------------------------------------------------------------------


class TestTransparentFaults:
    def test_starvation_recovers_with_refill_budget(self):
        cfg = faulted_config(
            FaultSpec(kind="starve-free-list", at=90, value=1, arg=2)
        )
        run, expected = run_irregular("linked_list", cfg)
        assert list(run.results) == expected
        assert run.stats.faults_injected == 1
        assert run.stats.free_list_refills >= 1

    def test_starvation_recovers_through_emergency_collection(self):
        # Zero refill budget and nearly no blocks left: only emergency
        # reclamation of shadowed blocks can produce allocations.
        cfg = faulted_config(
            FaultSpec(kind="starve-free-list", at=120, value=0, arg=6),
            free_list_refills=4,
        )
        run, expected = run_irregular(
            "linked_list", cfg, mix=opgen.READ_INTENSIVE
        )
        assert list(run.results) == expected
        assert run.stats.emergency_gc_phases >= 1

    def test_drop_wake_recovered_by_watchdog_kick(self):
        cfg = faulted_config(FaultSpec(kind="drop-wake", at=1, span=2))
        run, expected = run_irregular("linked_list", cfg)
        assert list(run.results) == expected
        assert run.stats.faults_injected >= 1
        assert run.stats.watchdog_trips >= 1
        assert run.stats.watchdog_kicks >= 1

    def test_delay_wake_transparent(self):
        cfg = faulted_config(
            FaultSpec(kind="delay-wake", at=1, span=3, value=40)
        )
        run, expected = run_irregular("linked_list", cfg)
        assert list(run.results) == expected
        assert run.stats.faults_injected >= 1

    def test_pause_gc_transparent(self):
        cfg = faulted_config(FaultSpec(kind="pause-gc", at=60, value=3000))
        run, expected = run_irregular("linked_list", cfg)
        assert list(run.results) == expected
        assert run.stats.faults_injected == 1

    def test_injector_bookkeeping(self):
        cfg = MachineConfig(
            num_cores=2,
            checked=True,
            faults=(
                FaultSpec(kind="pause-gc", at=2, value=500),
                FaultSpec(kind="delay-wake", at=1, span=1, value=10),
            ),
        )
        m = Machine(cfg)
        cell = Versioned(m.heap.alloc_versioned(1))

        def producer(tid):
            yield ("compute", 200)
            yield cell.store_ver(0, 42)

        def consumer(tid):
            return (yield cell.load_ver(0))  # parks until v0 exists

        tasks = [Task(0, producer), Task(1, consumer)]
        m.submit(tasks)
        stats = m.run()
        assert tasks[1].result == 42
        assert m.injector is not None
        assert stats.faults_injected == len(m.injector.fired) == 2
        assert m.manager.ticks > 0  # the op ordinal the plan triggers on
        assert m.injector.notify_index >= 1


# ---------------------------------------------------------------------------
# Abort-and-retry as an injected fault (deterministic, pure generators).
# ---------------------------------------------------------------------------


class TestAbortTaskFault:
    def test_abort_mid_task_rolls_back_and_replays(self):
        cfg = MachineConfig(
            num_cores=2,
            checked=True,
            faults=(FaultSpec(kind="abort-task", at=4, value=10, arg=1),),
        )
        m = Machine(cfg)
        cell = Versioned(m.heap.alloc_versioned(1))
        m.manager.store_version(0, cell.addr, 0, 5)

        def writer(tid):
            v = yield cell.load_ver(0)
            yield cell.store_ver(tid, v * 2)
            yield ("compute", 2000)
            return v

        def reader(tid):
            # Exact load: parks until the writer's v1 exists, and if the
            # abort drops v1 mid-wait it re-parks until the replay
            # recreates it.
            v = yield cell.load_ver(1)
            return v

        tasks = [Task(1, writer), Task(2, reader)]
        m.submit(tasks)
        stats = m.run()
        assert tasks[0].result == 5
        assert tasks[1].result == 10
        assert stats.tasks_retried == 1
        assert m.injector.fired, "abort fault should have been applied"

    def test_abort_skipped_when_victim_already_finished(self):
        cfg = MachineConfig(
            num_cores=1,
            checked=True,
            faults=(FaultSpec(kind="abort-task", at=50, value=1, arg=0),),
        )
        m = Machine(cfg)
        cell = Versioned(m.heap.alloc_versioned(1))

        def prog(tid):
            yield cell.store_ver(0, 1)
            return 1

        tasks = [Task(0, prog)]
        m.submit(tasks)
        stats = m.run()
        assert tasks[0].result == 1
        assert stats.tasks_retried == 0


# ---------------------------------------------------------------------------
# FreeListExhausted edges.
# ---------------------------------------------------------------------------


class TestExhaustionEdges:
    @pytest.mark.parametrize("name", sorted(IRREGULAR))
    def test_bounded_refill_budget_irregular(self, name):
        # Small free list with a bounded refill budget: every irregular
        # workload must complete correctly through refill traps.
        cfg = dataclasses.replace(
            TABLE2,
            checked=True,
            free_list_blocks=48,
            refill_blocks=32,
            free_list_refills=8,
            gc_watermark=8,
        )
        run, expected = run_irregular(name, cfg, mix=opgen.WRITE_INTENSIVE)
        assert list(run.results) == expected
        # Memory pressure must actually have been exercised: either the
        # budgeted refill trap fired or the GC had to reclaim blocks.
        assert run.stats.free_list_refills + run.stats.gc_reclaimed >= 1

    @pytest.mark.parametrize("name", ("matmul", "levenshtein"))
    def test_bounded_refill_budget_regular(self, name):
        cfg = dataclasses.replace(
            TABLE2,
            checked=True,
            free_list_blocks=48,
            refill_blocks=32,
            free_list_refills=24,
            gc_watermark=8,
        )
        if name == "matmul":
            import numpy as np

            run = matmul.run_versioned(cfg, 6, 4, seed=3)
            a, b, c = matmul.make_inputs(6, 3)
            assert np.array_equal(run.final_state, matmul.reference(a, b, c))
        else:
            run = levenshtein.run_versioned(cfg, 10, 4, seed=3)
            s1, s2 = levenshtein.make_strings(10, 3)
            assert run.final_state == levenshtein.reference(s1, s2)
        assert run.stats.free_list_refills >= 1

    def test_terminal_exhaustion_carries_wait_graph(self):
        # Unrecoverable starvation mid-run: cores park on allocation,
        # nothing ever becomes reclaimable enough, and the run must end
        # in FreeListExhausted with a wait-graph report attached.
        cfg = faulted_config(
            FaultSpec(kind="starve-free-list", at=90, value=0, arg=2),
            watchdog_cycles=5_000,
        )
        with pytest.raises(FreeListExhausted) as exc_info:
            run_irregular("linked_list", cfg)
        exc = exc_info.value
        assert exc.post_mortem
        assert "wait graph" in str(exc)
        assert "backpressure" in str(exc)

    def test_backpressure_disabled_raises_immediately(self):
        cfg = faulted_config(
            FaultSpec(kind="starve-free-list", at=90, value=0, arg=0),
            allocation_backpressure=False,
            watchdog_cycles=0,
        )
        with pytest.raises(FreeListExhausted) as exc_info:
            run_irregular("linked_list", cfg)
        # The fail-fast path raises from inside allocation: no stalled
        # cores yet, so no backpressure edges are expected.
        assert "refill budget" in str(exc_info.value)

    def test_backpressure_stall_counters(self):
        # Starve hard but leave shadowed blocks reclaimable only after
        # tasks end: cores must actually park on ALLOC_WAIT.
        cfg = faulted_config(
            FaultSpec(kind="starve-free-list", at=80, value=0, arg=0),
            free_list_blocks=96,
            gc_watermark=4,
        )
        try:
            run, expected = run_irregular(
                "linked_list", cfg, mix=opgen.READ_INTENSIVE, n_ops=64
            )
        except FreeListExhausted:
            pytest.skip("schedule degraded before any stall resolved")
        assert list(run.results) == expected
        if run.stats.backpressure_stalls:
            assert run.stats.backpressure_stall_cycles >= 0
