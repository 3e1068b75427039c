"""Tests for the recovery tier (repro.recovery).

Covers the four layers of the checkpoint/restore story: the state walk
and its digest, the CRC-guarded on-disk images (including SIGKILL-ing a
writer mid-write), the in-machine Checkpointer with the GC epoch pin,
and crash auto-recovery through RecoveryPolicy — culminating in the
byte-identical-replay property across all six workloads, and in sweep
resume after the parent process itself is killed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FaultSpec, Machine, MachineConfig, Task, Versioned
from repro.config import TABLE2
from repro.errors import CheckpointError, ConfigError, MachineCrash
from repro.harness.presets import get_scale
from repro.harness.runner import SweepRunner, code_version, make_spec
from repro.harness.sweeps import (
    _IRREGULAR_MODULES,
    _run_irregular,
    _run_regular,
    irregular_spec,
)
from repro.obs import SpanRecorder, critical_path, dependency_edges
from repro.recovery import (
    Checkpoint,
    Checkpointer,
    RecoveryPolicy,
    capture_state,
    find_latest_valid_image,
    load_images,
)
from repro.recovery.checkpoint import atomic_write_bytes, image_path, state_digest
from repro.sim.machine import add_machine_observer, remove_machine_observer
from repro.sim.trace import Tracer
from repro.workloads.opgen import READ_INTENSIVE

SRC = str(Path(__file__).resolve().parents[1] / "src")

ALL_WORKLOADS = (
    "linked_list",
    "binary_tree",
    "hash_table",
    "rb_tree",
    "levenshtein",
    "matmul",
)


# ---------------------------------------------------------------------------
# Helpers.
# ---------------------------------------------------------------------------


def _seeded_machine(extra_versions: int = 0) -> tuple[Machine, int]:
    """A small machine with a deterministic version store; ``(m, vaddr)``."""
    m = Machine(MachineConfig(num_cores=2))
    vaddr = m.heap.alloc_versioned(1)
    for v in range(3 + extra_versions):
        m.manager.store_version(0, vaddr, v, 100 + v)
    return m, vaddr


def _store_prog(cell: Versioned, n: int):
    """A task body storing versions 1..n (version 0 is host-stored)."""

    def prog(tid):
        for v in range(1, n + 1):
            yield cell.store_ver(v, v * 10)
        return n

    return prog


def _policy_run(
    workload: str,
    config,
    directory: Path,
    *,
    every: int = 32,
    cores: int = 2,
    n_ops: int | None = 300,
    tail: int = 30,
    max_restores: int = 4,
):
    """One RecoveryPolicy-managed workload run; ``(run, report, tail)``.

    Mirrors the ``python -m repro recover`` driver so tests can compare a
    reference run against a crashed-and-recovered run byte for byte.
    """
    scale = get_scale("quick")

    def run_fn(cfg):
        if workload in _IRREGULAR_MODULES:
            return _run_irregular(
                workload, cfg, scale, "small", READ_INTENSIVE,
                "versioned", cores, n_ops,
            )
        return _run_regular(workload, cfg, scale, "small", "versioned", cores)

    state: dict = {}

    def observe(machine) -> None:
        state["tracer"] = Tracer(machine, capacity=1 << 12)

    policy = RecoveryPolicy(directory, every, max_restores=max_restores)
    add_machine_observer(observe)
    try:
        run, report = policy.execute(run_fn, config)
    finally:
        remove_machine_observer(observe)
    return run, report, [str(e) for e in state["tracer"].last(tail)]


def _rows(run) -> str:
    return json.dumps(run.stats.snapshot(), sort_keys=True)


# ---------------------------------------------------------------------------
# State walk and digest.
# ---------------------------------------------------------------------------


class TestStateDigest:
    def test_identical_machines_have_identical_digests(self):
        a, _ = _seeded_machine()
        b, _ = _seeded_machine()
        assert capture_state(a) == capture_state(b)
        assert state_digest(capture_state(a)) == state_digest(capture_state(b))

    def test_digest_changes_when_state_changes(self):
        a, _ = _seeded_machine()
        b, vaddr = _seeded_machine()
        b.manager.store_version(0, vaddr, 3, 999)
        assert state_digest(capture_state(a)) != state_digest(capture_state(b))

    def test_walk_covers_gc_pin(self):
        m, vaddr = _seeded_machine()
        before = state_digest(capture_state(m))
        m.gc.epoch_pin = frozenset({(vaddr, 0)})
        assert state_digest(capture_state(m)) != before


# ---------------------------------------------------------------------------
# On-disk images: round trip, CRC guard, staleness rules.
# ---------------------------------------------------------------------------


class TestImages:
    def test_round_trip(self, tmp_path):
        m, _ = _seeded_machine()
        ck = Checkpoint.capture(m, marker=3, every=16)
        path = ck.write(image_path(tmp_path, 3))
        assert path.name == "ckpt-000003.img"
        back = Checkpoint.read(path)
        assert back.marker == 3
        assert back.every == 16
        assert back.digest == ck.digest
        assert back.state == ck.state
        assert back.verify(m)

    def test_corrupt_image_raises_and_is_counted(self, tmp_path):
        m, _ = _seeded_machine()
        Checkpoint.capture(m, marker=1, every=8).write(image_path(tmp_path, 1))
        Checkpoint.capture(m, marker=2, every=8).write(image_path(tmp_path, 2))
        target = image_path(tmp_path, 2)
        raw = bytearray(target.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        target.write_bytes(bytes(raw))

        with pytest.raises(CheckpointError):
            Checkpoint.read(target)
        images, corrupt = load_images(tmp_path, every=8)
        assert corrupt == 1
        assert sorted(images) == [1]
        latest = find_latest_valid_image(tmp_path, every=8)
        assert latest is not None and latest.marker == 1

    def test_truncated_and_bad_magic_images(self, tmp_path):
        bad = tmp_path / "ckpt-000001.img"
        bad.write_bytes(b"nope")
        with pytest.raises(CheckpointError):
            Checkpoint.read(bad)
        with pytest.raises(CheckpointError):
            Checkpoint.read(tmp_path / "ckpt-000009.img")  # missing

    def test_mismatched_cadence_images_are_stale_not_corrupt(self, tmp_path):
        m, _ = _seeded_machine()
        Checkpoint.capture(m, marker=1, every=8).write(image_path(tmp_path, 1))
        images, corrupt = load_images(tmp_path, every=64)
        assert images == {} and corrupt == 0
        images, corrupt = load_images(tmp_path, every=8)
        assert sorted(images) == [1] and corrupt == 0


# ---------------------------------------------------------------------------
# Atomic writes survive kill -9 of the writer.
# ---------------------------------------------------------------------------


class TestAtomicWrite:
    def test_sigkilled_writer_leaves_whole_old_or_whole_new_file(self, tmp_path):
        target = tmp_path / "row.json"
        payload_a = b"A" * 8192
        payload_b = b"B" * 8192
        script = (
            "import sys, pathlib\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from repro.recovery.checkpoint import atomic_write_bytes\n"
            "target = pathlib.Path(sys.argv[2])\n"
            "i = 0\n"
            "while True:\n"
            "    atomic_write_bytes(target, (b'A' if i % 2 == 0 else b'B') * 8192)\n"
            "    i += 1\n"
        )
        proc = subprocess.Popen([sys.executable, "-c", script, SRC, str(target)])
        try:
            deadline = time.monotonic() + 30.0
            while not target.exists():
                assert proc.poll() is None, "writer died before first write"
                assert time.monotonic() < deadline, "writer never produced the file"
                time.sleep(0.01)
            time.sleep(0.25)  # let it race through many rewrites
        finally:
            proc.kill()
            proc.wait()
        # Whatever instruction the SIGKILL landed on, the visible file is
        # one complete payload -- never a truncation or interleaving.
        assert target.read_bytes() in (payload_a, payload_b)

    def test_interrupted_write_leaves_no_tmp_straggler(self, tmp_path, monkeypatch):
        target = tmp_path / "x.bin"
        atomic_write_bytes(target, b"old")

        def boom(src, dst):
            raise OSError("injected replace failure")

        # Fail at the publish step: the temp file exists and is full of
        # the new bytes, but the rename never happens.
        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError, match="injected"):
            atomic_write_bytes(target, b"new")
        monkeypatch.undo()
        assert target.read_bytes() == b"old"
        assert not list(tmp_path.glob("*.tmp"))


# ---------------------------------------------------------------------------
# The in-machine Checkpointer.
# ---------------------------------------------------------------------------


class TestCheckpointer:
    def _run_with_checkpointer(self, tmp_path, *, every=4, verify=None):
        m = Machine(MachineConfig(num_cores=1))
        ck = Checkpointer(m, tmp_path, every, verify=verify)
        cell = Versioned(m.heap.alloc_versioned(1))
        m.manager.store_version(0, cell.addr, 0, 5)
        m.submit([Task(1, _store_prog(cell, 12))])
        stats = m.run()
        ck.detach()
        return m, ck, stats

    def test_capture_mode_writes_images_and_counts_markers(self, tmp_path):
        m, ck, stats = self._run_with_checkpointer(tmp_path)
        assert ck.captured, "expected at least one marker at every=4"
        assert stats.checkpoints_reached == len(ck.captured)
        images, corrupt = load_images(tmp_path, every=4)
        assert corrupt == 0
        assert sorted(images) == ck.captured
        # detach() unsubscribed from ``tick`` and cleared the back-pointer.
        assert m.checkpointer is None
        assert m.events.tick == ()

    def test_verify_mode_replays_byte_identical(self, tmp_path):
        _, first, _ = self._run_with_checkpointer(tmp_path)
        images, _ = load_images(tmp_path, every=4)
        _, second, _ = self._run_with_checkpointer(tmp_path, verify=images)
        assert second.verified == first.captured
        assert second.captured == []

    def test_verify_mode_is_loud_on_divergence(self, tmp_path):
        self._run_with_checkpointer(tmp_path)
        images, _ = load_images(tmp_path, every=4)
        # A *different* program replayed against those images must fail
        # the digest comparison at the first common marker.
        m = Machine(MachineConfig(num_cores=1))
        Checkpointer(m, tmp_path, 4, verify=images)
        cell = Versioned(m.heap.alloc_versioned(1))
        m.manager.store_version(0, cell.addr, 0, 7)  # different seed value
        m.submit([Task(1, _store_prog(cell, 12))])
        with pytest.raises(CheckpointError, match="diverged"):
            m.run()

    def test_invalid_interval_rejected(self, tmp_path):
        m = Machine(MachineConfig(num_cores=1))
        with pytest.raises(ConfigError):
            Checkpointer(m, tmp_path, 0)

    def test_zero_cost_when_disabled(self):
        # No checkpointer attached: no ``tick`` subscriber, no
        # back-pointer, nothing on the hot path.
        m = Machine(MachineConfig(num_cores=1))
        assert m.checkpointer is None
        assert m.events.tick == ()


# ---------------------------------------------------------------------------
# The GC epoch pin.
# ---------------------------------------------------------------------------


class TestEpochPin:
    def _shadowed_machine(self, versions=2):
        m = Machine(MachineConfig(num_cores=1))
        vaddr = m.heap.alloc_versioned(1)
        for v in range(versions + 1):
            m.manager.store_version(0, vaddr, v, v)
        assert m.gc.shadowed_count == versions
        return m, vaddr

    def test_phase_keeps_pinned_block(self):
        m, vaddr = self._shadowed_machine(versions=1)
        m.gc.epoch_pin = frozenset({(vaddr, 0)})
        m.gc.start_phase()
        assert m.stats.gc_pin_kept == 1
        assert m.stats.gc_reclaimed == 0
        assert sorted(b.version for b in m.manager.lists[vaddr]) == [0, 1]
        # Advancing the pin past the block releases it at the next phase.
        m.gc.epoch_pin = None
        m.gc.start_phase()
        assert m.stats.gc_reclaimed == 1
        assert sorted(b.version for b in m.manager.lists[vaddr]) == [1]

    def test_emergency_reclaims_around_the_pin(self):
        m, vaddr = self._shadowed_machine(versions=2)
        m.gc.epoch_pin = frozenset({(vaddr, 0)})
        freed = m.gc.emergency_collect()
        # Version 1 was reclaimable, so the pin held and version 0 stayed.
        assert freed == 1
        assert m.gc.pin_drops == 0
        assert m.gc.epoch_pin is not None
        assert m.stats.gc_pin_kept == 1
        assert sorted(b.version for b in m.manager.lists[vaddr]) == [0, 2]

    def test_emergency_drops_a_starving_pin(self):
        m, vaddr = self._shadowed_machine(versions=1)
        m.gc.epoch_pin = frozenset({(vaddr, 0)})
        freed = m.gc.emergency_collect()
        # The only reclaimable block was pinned: allocation pressure wins,
        # the pin is dropped (counted), and a second pass frees it.
        assert freed == 1
        assert m.gc.pin_drops == 1
        assert m.gc.epoch_pin is None
        assert sorted(b.version for b in m.manager.lists[vaddr]) == [1]


# ---------------------------------------------------------------------------
# Environment faults: crash-machine / corrupt-block.
# ---------------------------------------------------------------------------


class TestEnvironmentFaults:
    def test_crash_fault_raises_machine_crash_without_stats_bump(self):
        cfg = MachineConfig(
            num_cores=1, faults=(FaultSpec(kind="crash-machine", at=3),)
        )
        m = Machine(cfg)
        cell = Versioned(m.heap.alloc_versioned(1))
        m.manager.store_version(0, cell.addr, 0, 5)
        m.submit([Task(1, _store_prog(cell, 8))])
        with pytest.raises(MachineCrash) as exc:
            m.run()
        assert exc.value.op_index == 3
        assert m.injector.fired, "crash fault should be recorded as fired"
        # Environment faults never perturb the run's own stats: the
        # recovered re-run must end byte-identical to an uninterrupted one.
        assert m.stats.faults_injected == 0

    def test_corrupt_fault_is_skipped_without_a_checkpointer(self):
        cfg = MachineConfig(
            num_cores=1, faults=(FaultSpec(kind="corrupt-block", at=2),)
        )
        m = Machine(cfg)
        cell = Versioned(m.heap.alloc_versioned(1))
        m.manager.store_version(0, cell.addr, 0, 5)
        m.submit([Task(1, _store_prog(cell, 4))])
        m.run()
        assert m.injector.skipped and not m.injector.fired
        assert m.stats.faults_injected == 0


# ---------------------------------------------------------------------------
# Crash auto-recovery: restore, replay, byte-identity.
# ---------------------------------------------------------------------------


class TestCrashRecovery:
    def test_recovered_run_is_byte_identical(self, tmp_path):
        base = dataclasses.replace(TABLE2)
        ref, ref_report, ref_tail = _policy_run(
            "rb_tree", base, tmp_path / "reference"
        )
        assert ref_report.completed and ref_report.crashes == 0
        assert ref_report.captured_images >= 2

        crashed = dataclasses.replace(
            base, faults=(FaultSpec(kind="crash-machine", at=150),)
        )
        out, report, tail = _policy_run("rb_tree", crashed, tmp_path / "crashed")
        assert report.crashes == 1 and report.restores == 1
        assert report.completed
        assert report.restore_markers and report.restore_markers[0] >= 1
        assert report.verified_markers >= 1
        assert _rows(out) == _rows(ref)
        assert tail == ref_tail

    def test_corrupt_image_falls_back_to_previous_marker(self, tmp_path):
        base = dataclasses.replace(TABLE2)
        ref, _, ref_tail = _policy_run("rb_tree", base, tmp_path / "reference")
        crashed = dataclasses.replace(
            base,
            faults=(
                FaultSpec(kind="corrupt-block", at=1500),
                FaultSpec(kind="crash-machine", at=2200),
            ),
        )
        out, report, tail = _policy_run("rb_tree", crashed, tmp_path / "crashed")
        assert report.corrupt_images >= 1
        assert report.completed
        assert _rows(out) == _rows(ref)
        assert tail == ref_tail

    def test_restore_budget_exhaustion_reraises(self, tmp_path):
        crashed = dataclasses.replace(
            TABLE2, faults=(FaultSpec(kind="crash-machine", at=100),)
        )
        with pytest.raises(MachineCrash):
            _policy_run(
                "rb_tree", crashed, tmp_path / "crashed", max_restores=0
            )

    def test_restore_is_announced_through_the_recovery_hook(self, tmp_path):
        events: list[tuple[str, dict]] = []

        def observe(machine) -> None:
            machine.events.subscribe(
                "recovery", lambda ev, info: events.append((ev, dict(info)))
            )

        crashed = dataclasses.replace(
            TABLE2, faults=(FaultSpec(kind="crash-machine", at=150),)
        )
        scale = get_scale("quick")

        def run_fn(cfg):
            return _run_irregular(
                "rb_tree", cfg, scale, "small", READ_INTENSIVE,
                "versioned", 2, 300,
            )

        policy = RecoveryPolicy(tmp_path, 32)
        add_machine_observer(observe)
        try:
            _, report = policy.execute(run_fn, crashed)
        finally:
            remove_machine_observer(observe)
        restores = [info for ev, info in events if ev == "restore"]
        assert restores and restores[0]["restore"] == 1
        assert restores[0]["marker"] == report.restore_markers[0]

    def test_cli_end_to_end(self, tmp_path):
        from repro.recovery.cli import main

        rc = main(
            [
                "rb_tree", "--crash-at", "120", "--ops", "300",
                "--checkpoint-every", "32", "--cores", "2",
                "--dir", str(tmp_path),
            ]
        )
        assert rc == 0


# ---------------------------------------------------------------------------
# The replay property, across all six workloads, checked=True.
# ---------------------------------------------------------------------------


class TestReplayProperty:
    @settings(max_examples=8, deadline=None)
    @given(
        workload=st.sampled_from(ALL_WORKLOADS),
        crash_at=st.integers(min_value=1, max_value=400),
    )
    def test_checkpoint_restore_replay_is_byte_identical(
        self, tmp_path_factory, workload, crash_at
    ):
        root = tmp_path_factory.mktemp("replay")
        base = dataclasses.replace(TABLE2, checked=True)
        ref, _, ref_tail = _policy_run(
            workload, base, root / "reference", n_ops=240
        )
        crashed = dataclasses.replace(
            base, faults=(FaultSpec(kind="crash-machine", at=crash_at),)
        )
        out, report, tail = _policy_run(
            workload, crashed, root / "crashed", n_ops=240
        )
        assert report.completed
        assert _rows(out) == _rows(ref)
        assert tail == ref_tail


# ---------------------------------------------------------------------------
# Sweep-tier recovery: resuming after the parent process dies.
# ---------------------------------------------------------------------------


def _subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestSweepResume:
    def test_parent_death_mid_sweep_resumes_to_identical_report(self, tmp_path):
        # A chaos "crash" spec run serially os._exit()s the *parent* —
        # the sweep process itself dies mid-run, like a kill -9.
        cache = tmp_path / "cache"
        marker = tmp_path / "markers"
        script = (
            "import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from repro.harness.runner import SweepRunner, make_spec\n"
            "cache, marker = sys.argv[2], sys.argv[3]\n"
            "specs = [\n"
            "    make_spec('chaos', key='r0', mode='ok', marker_dir=''),\n"
            "    make_spec('chaos', key='kill', mode='crash', marker_dir=marker),\n"
            "    make_spec('chaos', key='r1', mode='ok', marker_dir=''),\n"
            "]\n"
            "runner = SweepRunner(cache_dir=cache, jobs=1, checkpoint_every=16)\n"
            "runner.run(specs)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, SRC, str(cache), str(marker)],
            env=_subprocess_env(),
            timeout=120,
        )
        from repro.faults.harness import CRASH_EXIT_STATUS

        assert proc.returncode == CRASH_EXIT_STATUS

        specs = [
            make_spec("chaos", key="r0", mode="ok", marker_dir=""),
            make_spec("chaos", key="kill", mode="crash", marker_dir=str(marker)),
            make_spec("chaos", key="r1", mode="ok", marker_dir=""),
        ]
        clean = SweepRunner(
            cache_dir=tmp_path / "clean", jobs=1, checkpoint_every=16
        )
        reference = [r.to_json() for r in clean.run(specs)]

        resumed = SweepRunner(
            cache_dir=cache, jobs=1, resume=True, checkpoint_every=16
        )
        results = resumed.run(specs)
        assert resumed.stats.cache_hits >= 1, "pre-crash rows must survive"
        assert [r.to_json() for r in results] == reference

    def test_sigkilled_simulation_resumes_from_its_images(self, tmp_path):
        # Kill -9 a serial sweep *while a simulation is running*, after
        # it has written at least one checkpoint image; the resumed sweep
        # replays under digest verification and lands on the same row.
        cache = tmp_path / "cache"
        ckpt = tmp_path / "ckpt"
        script = (
            "import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from repro.config import TABLE2\n"
            "from repro.harness.presets import get_scale\n"
            "from repro.harness.runner import SweepRunner\n"
            "from repro.harness.sweeps import irregular_spec\n"
            "spec = irregular_spec('rb_tree', TABLE2, get_scale('quick'),\n"
            "                      'small', '4R-1W', 'versioned', 2, 6000)\n"
            "runner = SweepRunner(cache_dir=sys.argv[2], jobs=1,\n"
            "                     checkpoint_every=32, checkpoint_dir=sys.argv[3])\n"
            "runner.run([spec])\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script, SRC, str(cache), str(ckpt)],
            env=_subprocess_env(),
        )
        try:
            deadline = time.monotonic() + 60.0
            while not list(ckpt.glob("*/ckpt-*.img")):
                if proc.poll() is not None:
                    pytest.fail("sweep finished before any image appeared")
                assert time.monotonic() < deadline, "no checkpoint image in time"
                time.sleep(0.02)
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait()
        assert proc.returncode == -signal.SIGKILL
        assert list(ckpt.glob("*/ckpt-*.img")), "images must survive the kill"

        spec = irregular_spec(
            "rb_tree", TABLE2, get_scale("quick"), "small", "4R-1W",
            "versioned", 2, 6000,
        )
        clean = SweepRunner(
            cache_dir=tmp_path / "clean-cache", jobs=1,
            checkpoint_every=32, checkpoint_dir=tmp_path / "clean-ckpt",
        )
        reference = [r.to_json() for r in clean.run([spec])]

        resumed = SweepRunner(
            cache_dir=cache, jobs=1, resume=True,
            checkpoint_every=32, checkpoint_dir=ckpt,
        )
        results = resumed.run([spec])
        assert [r.to_json() for r in results] == reference
        # A verified completion cleans up its per-spec image directory.
        assert not list(ckpt.glob("*/ckpt-*.img"))

    def test_cache_namespace_depends_on_checkpoint_cadence(self, tmp_path):
        plain = SweepRunner(cache_dir=tmp_path / "a", jobs=1)
        ckpt = SweepRunner(cache_dir=tmp_path / "b", jobs=1, checkpoint_every=16)
        assert plain.cache.version == code_version()
        assert ckpt.cache.version == f"{code_version()}-ckpt16"
        assert plain.cache.version != ckpt.cache.version

    def test_env_interval_is_validated(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CKPT_EVERY", "banana")
        with pytest.raises(ConfigError):
            SweepRunner(cache_dir=tmp_path / "cache", jobs=1)
        monkeypatch.setenv("REPRO_CKPT_EVERY", "0")
        with pytest.raises(ConfigError):
            SweepRunner(cache_dir=tmp_path / "cache", jobs=1)


# ---------------------------------------------------------------------------
# Satellite regression: aborted tasks leave no dangling critpath edges.
# ---------------------------------------------------------------------------


class TestAbortedProduceEdges:
    def test_aborted_store_leaves_no_dangling_produce_edge(self):
        # The first attempt stores v1 into cell_a and is aborted; the
        # retry stores v1 into cell_b instead.  Without the drop hook the
        # recorder would keep the rolled-back (cell_a, 1) produce edge
        # and the critical-path DP would route paths through a store
        # that never happened.
        cfg = MachineConfig(
            num_cores=2,
            checked=True,
            faults=(FaultSpec(kind="abort-task", at=4, value=10, arg=1),),
        )
        m = Machine(cfg)
        rec = SpanRecorder(m)
        cell_a = Versioned(m.heap.alloc_versioned(1))
        cell_b = Versioned(m.heap.alloc_versioned(1))
        m.manager.store_version(0, cell_a.addr, 0, 5)
        m.manager.store_version(0, cell_b.addr, 0, 6)
        attempts = {"n": 0}

        def writer(tid):
            attempts["n"] += 1
            target = cell_a if attempts["n"] == 1 else cell_b
            v = yield cell_a.load_ver(0)
            yield target.store_ver(1, v * 2)
            yield ("compute", 2000)
            return v

        tasks = [Task(1, writer)]
        m.submit(tasks)
        stats = m.run()
        rec.detach()

        assert stats.tasks_retried == 1, "the abort fault must have fired"
        assert attempts["n"] == 2
        assert (cell_a.addr, 1) not in rec.produces, (
            "rolled-back produce edge must be forgotten"
        )
        assert (cell_b.addr, 1) in rec.produces
        # Every surviving produce edge names a version still in the store,
        # and the critical-path DP runs cleanly over the pruned graph.
        for vaddr, version in rec.produces:
            assert any(
                b.version == version for b in m.manager.lists[vaddr]
            ), f"dangling edge ({vaddr}, {version})"
        dependency_edges(rec)
        path = critical_path(rec)
        assert path["length_cycles"] >= 0
