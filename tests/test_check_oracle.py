"""Tests for the SWOStructure probe API and the differential oracle."""

from __future__ import annotations

import pytest

from repro.check.oracle import DifferentialOracle
from repro.errors import (
    NotLockedError,
    ProtectionFault,
    SimulationError,
    VersionExistsError,
)
from repro.ostruct import isa
from repro.ostruct.manager import StallSignal
from repro.sw.ostructure import SWOStructure

ADDR = 0x1000


class TestTryProbes:
    def test_try_load_version(self):
        sw = SWOStructure()
        assert sw.try_load_version(1) is None
        sw.store_version(1, "a")
        assert sw.try_load_version(1) == ("a",)

    def test_try_load_version_blocked_by_lock(self):
        sw = SWOStructure()
        sw.store_version(1, "a")
        sw.lock_load_version(1, task_id=7)
        assert sw.try_load_version(1) is None

    def test_try_load_latest(self):
        sw = SWOStructure()
        assert sw.try_load_latest(5) is None
        sw.store_version(1, "a")
        sw.store_version(3, "c")
        assert sw.try_load_latest(5) == (3, "c")
        assert sw.try_load_latest(2) == (1, "a")
        assert sw.try_load_latest(0) is None

    def test_try_lock_load_version_locks_only_on_success(self):
        sw = SWOStructure()
        assert sw.try_lock_load_version(1, task_id=3) is None
        assert not sw.is_locked(1)
        sw.store_version(1, "a")
        assert sw.try_lock_load_version(1, task_id=3) == ("a",)
        assert sw.locker_of(1) == 3
        # Second attempt observes the lock and does not clobber it.
        assert sw.try_lock_load_version(1, task_id=4) is None
        assert sw.locker_of(1) == 3

    def test_try_lock_load_latest(self):
        sw = SWOStructure()
        sw.store_version(2, "b")
        assert sw.try_lock_load_latest(9, task_id=5) == (2, "b")
        assert sw.locker_of(2) == 5
        assert sw.try_lock_load_latest(9, task_id=6) is None

    def test_probes_agree_with_blocking_forms(self):
        sw = SWOStructure()
        sw.store_version(1, "a")
        assert sw.try_load_version(1)[0] == sw.load_version(1)
        assert sw.try_load_latest(4) == sw.load_latest(4)

    def test_drop_version(self):
        sw = SWOStructure()
        sw.store_version(1, "a")
        assert sw.drop_version(1) is True
        assert sw.drop_version(1) is False
        assert sw.versions() == []

    def test_drop_locked_version_refused(self):
        sw = SWOStructure()
        sw.store_version(1, "a")
        sw.lock_load_version(1, task_id=2)
        with pytest.raises(SimulationError):
            sw.drop_version(1)

    def test_dump(self):
        sw = SWOStructure()
        sw.store_version(1, "a")
        sw.store_version(2, "b")
        sw.lock_load_version(2, task_id=9)
        assert sw.dump() == {1: ("a", None), 2: ("b", 9)}


def done(o, name, *args, out=None, addr=ADDR):
    """Report ``name`` as completed by the manager with payload ``out``."""
    return o.check_op(name, (0, addr, *args), (1, out), None)


def refused(o, name, *args, addr=ADDR):
    """Report ``name`` as refused by the manager (stall, duplicate, not held)."""
    exc = {
        isa.STORE_VERSION: VersionExistsError("duplicate"),
        isa.UNLOCK_VERSION: NotLockedError("not held"),
    }.get(name, StallSignal(addr, "blocked"))
    return o.check_op(name, (0, addr, *args), None, exc)


class TestOracleMirrors:
    def test_mirror_store_then_loads_agree(self):
        o = DifferentialOracle()
        assert done(o, isa.STORE_VERSION, 1, "a", None) == []
        assert done(o, isa.LOAD_VERSION, 1, out="a") == []
        assert done(o, isa.LOAD_LATEST, 5, out=(1, "a")) == []
        assert o.ops_mirrored == 3

    def test_duplicate_store_flagged(self):
        o = DifferentialOracle()
        done(o, isa.STORE_VERSION, 1, "a", None)
        assert done(o, isa.STORE_VERSION, 1, "b", None)  # hw created a duplicate
        assert refused(o, isa.STORE_VERSION, 1, "b", None) == []

    def test_wrong_value_flagged(self):
        o = DifferentialOracle()
        done(o, isa.STORE_VERSION, 1, "a", None)
        assert done(o, isa.LOAD_VERSION, 1, out="WRONG")
        assert done(o, isa.LOAD_LATEST, 5, out=(1, "WRONG"))

    def test_serving_nonexistent_version_flagged(self):
        o = DifferentialOracle()
        problems = done(o, isa.LOAD_VERSION, 3, out="ghost")
        assert problems and "does not exist" in problems[0]

    def test_stall_agreement(self):
        o = DifferentialOracle()
        assert refused(o, isa.LOAD_VERSION, 1) == []
        done(o, isa.STORE_VERSION, 1, "a", None)
        # Now a hw stall on version 1 would be a lost wake-up.
        assert refused(o, isa.LOAD_VERSION, 1)
        assert refused(o, isa.LOAD_LATEST, 5)
        assert refused(o, isa.LOAD_LATEST, 0) == []

    def test_lock_mirroring_and_unlock(self):
        o = DifferentialOracle()
        done(o, isa.STORE_VERSION, 1, "a", None)
        assert done(o, isa.LOCK_LOAD_VERSION, 1, 7, out="a") == []
        # While locked, plain loads must stall.
        assert refused(o, isa.LOAD_VERSION, 1) == []
        assert done(o, isa.UNLOCK_VERSION, 1, 7, None) == []
        assert done(o, isa.LOAD_VERSION, 1, out="a") == []

    def test_unlock_by_non_holder_flagged(self):
        o = DifferentialOracle()
        done(o, isa.STORE_VERSION, 1, "a", None)
        done(o, isa.LOCK_LOAD_VERSION, 1, 7, out="a")
        # hw let the wrong task unlock.
        assert done(o, isa.UNLOCK_VERSION, 1, 8, None)
        # hw refused the holder.
        assert refused(o, isa.UNLOCK_VERSION, 1, 7, None)

    def test_lock_latest_wrong_version_flagged(self):
        o = DifferentialOracle()
        done(o, isa.STORE_VERSION, 1, "a", None)
        done(o, isa.STORE_VERSION, 3, "c", None)
        # hw picked v1, the reference v3.
        assert done(o, isa.LOCK_LOAD_LATEST, 9, 5, out=(1, "a"))
        # The op is compared before it is applied: nothing got locked.
        assert o.tables[ADDR].lockers == {}

    def test_check_reclaim_safety(self):
        o = DifferentialOracle()
        done(o, isa.STORE_VERSION, 1, "a", None)
        done(o, isa.STORE_VERSION, 3, "c", None)
        # Live task 2 reads latest<=2 == v1: reclaiming v1 is unsafe.
        problems = o.check_reclaim(ADDR, 1, live_tasks=[2])
        assert problems and "live task 2" in problems[0]
        # With only task 4 live, v1 is shadowed by v3 and unreachable.
        assert o.check_reclaim(ADDR, 1, live_tasks=[4]) == []

    def test_check_reclaim_respects_protection_bound(self):
        # The ticket-protocol shape: v71 renamed into existence by task
        # 65 *for* mutator 71 shadows v65.  Queued readers 66..70 are
        # above max_seen=65, so reclaiming v65 is within the GC contract.
        o = DifferentialOracle()
        done(o, isa.STORE_VERSION, 65, "t65", None)
        done(o, isa.STORE_VERSION, 71, "t71", None)
        live = [66, 67, 70]
        assert o.check_reclaim(ADDR, 65, live, max_protected=65) == []
        # Without the bound (or with the task inside the begun window),
        # the same reclaim is a violation.
        assert o.check_reclaim(ADDR, 65, live)
        assert o.check_reclaim(ADDR, 65, live, max_protected=67)

    def test_check_reclaim_latest_version_flagged(self):
        o = DifferentialOracle()
        done(o, isa.STORE_VERSION, 2, "b", None)
        problems = o.check_reclaim(ADDR, 2, live_tasks=[])
        assert problems and "nothing shadows" in problems[0]

    def test_check_reclaim_locked_flagged(self):
        o = DifferentialOracle()
        done(o, isa.STORE_VERSION, 1, "a", None)
        done(o, isa.STORE_VERSION, 2, "b", None)
        done(o, isa.LOCK_LOAD_VERSION, 1, 7, out="a")
        assert any(
            "locked" in p for p in o.check_reclaim(ADDR, 1, live_tasks=[])
        )

    def test_mirror_free_count_mismatch(self):
        o = DifferentialOracle()
        done(o, isa.STORE_VERSION, 1, "a", None)
        done(o, isa.STORE_VERSION, 2, "b", None)
        # hw freed 1 block, the reference had 2.
        assert o.check_op("free_ostructure", (ADDR,), 1, None)
        done(o, isa.STORE_VERSION, 1, "x", None)
        assert o.check_op("free_ostructure", (ADDR,), 1, None) == []

    def test_unrelated_errors_are_not_compared(self):
        # A protection fault, or a rename target conflict already
        # reported by the internal store, leaves the reference alone.
        o = DifferentialOracle()
        done(o, isa.STORE_VERSION, 1, "a", None)
        done(o, isa.LOCK_LOAD_VERSION, 1, 7, out="a")
        fault = ProtectionFault("conventional page")
        assert o.check_op(isa.LOAD_VERSION, (0, ADDR, 1), None, fault) == []
        clash = VersionExistsError("rename target")
        assert o.check_op(isa.UNLOCK_VERSION, (0, ADDR, 1, 7, 1), None, clash) == []
        assert o.tables[ADDR].lockers == {1: 7}

    def test_compare_all_spots_extra_and_missing(self):
        from tests.test_manager import Rig

        rig = Rig()
        o = DifferentialOracle()
        rig.manager.store_version(0, rig.addr, 1, "a")
        done(o, isa.STORE_VERSION, 1, "a", None, addr=rig.addr)
        assert o.compare_all(rig.manager) == []
        # hw-only version.
        rig.manager.store_version(0, rig.addr, 2, "b")
        assert any("hw only" in p for p in o.compare_all(rig.manager))
        done(o, isa.STORE_VERSION, 2, "b", None, addr=rig.addr)
        # reference-only version.
        done(o, isa.STORE_VERSION, 1, "z", None, addr=rig.addr + 4)
        assert any(
            "reference only" in p for p in o.compare_all(rig.manager)
        )
