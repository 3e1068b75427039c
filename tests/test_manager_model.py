"""Model-based (stateful hypothesis) testing of every version-list tier.

Drives the real manager and a trivially correct pure-Python model with
the same random operation sequence, and checks after every step that
observable behaviour — values, blocking, lock state, version sets —
matches.  This covers interleavings the example-based tests do not:
out-of-order creation mixed with locks, renames landing between existing
versions, frees followed by address reuse, etc.

Every rule also drives the three software frontends of the same rules —
a bare :class:`~repro.sw.table.VersionTable`, a
:class:`~repro.sw.ostructure.SWOStructure` through its ``try_*`` forms,
and one key of a :class:`~repro.serve.store.ShardedStore` through its
``probe_*`` forms — and requires identical results from all of them.
The model stays an independent reference: it shares no code with any
tier.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.errors import NotLockedError, VersionExistsError
from repro.ostruct.manager import StallSignal
from repro.serve.store import ShardedStore
from repro.sw.ostructure import SWOStructure
from repro.sw.table import VersionTable
from tests.test_manager import Rig

ADDRS = 4
VERSIONS = st.integers(min_value=0, max_value=15)
TASKS = st.integers(min_value=0, max_value=3)
ADDR_IDX = st.integers(min_value=0, max_value=ADDRS - 1)


class _Model:
    """Ground-truth semantics of one O-structure address."""

    def __init__(self) -> None:
        self.versions: dict[int, object] = {}
        self.locks: dict[int, int] = {}

    def latest(self, cap: int) -> int | None:
        eligible = [v for v in self.versions if v <= cap]
        return max(eligible) if eligible else None

    def reclaimable(self, floor: int) -> set[int]:
        """Brute force: all but max <= floor, everything >= floor, locks."""
        keep = {self.latest(floor)} | set(self.locks)
        keep |= {v for v in self.versions if v >= floor}
        return set(self.versions) - keep

    def dump(self) -> dict[int, tuple[object, int | None]]:
        return {v: (x, self.locks.get(v)) for v, x in self.versions.items()}


def _outcome(fn, *args):
    """``fn(*args)``, or the type of the refusal it raised."""
    try:
        return fn(*args)
    except (VersionExistsError, NotLockedError) as exc:
        return type(exc)


def _hw(fn, *args):
    """A manager op's payload, None for a stall, or its refusal type."""
    try:
        out = fn(*args)
    except StallSignal:
        return None
    except (VersionExistsError, NotLockedError) as exc:
        return type(exc)
    return out[1]


class ManagerModelMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.rig = Rig(num_cores=2)
        self.base = self.rig.addr
        self.models = [_Model() for _ in range(ADDRS)]
        self.tables = [VersionTable() for _ in range(ADDRS)]
        self.sws = [SWOStructure() for _ in range(ADDRS)]
        # One shard, so a reclaim pass covers every key at once.
        self.store = ShardedStore(num_shards=1)
        self.keys = [f"k{i}" for i in range(ADDRS)]

    def _addr(self, idx: int) -> int:
        return self.base + 4 * idx

    def _agree(self, expected, hw, table, sw, store):
        """Every tier reports the model's outcome."""
        assert hw == expected
        assert table == expected
        assert sw == expected
        assert store == expected

    # -- rules -----------------------------------------------------------------

    @rule(idx=ADDR_IDX, version=VERSIONS, value=st.integers(0, 1000))
    def store(self, idx, version, value):
        model = self.models[idx]
        expected = VersionExistsError if version in model.versions else None
        self._agree(
            expected,
            _hw(self.rig.manager.store_version, 0, self._addr(idx), version, value),
            _outcome(self.tables[idx].store, version, value),
            _outcome(self.sws[idx].store_version, version, value),
            # The store returns how many versions it reclaimed (here 0).
            _outcome(self.store.store_version, self.keys[idx], version, value) or None,
        )
        if expected is None:
            model.versions[version] = value

    @rule(idx=ADDR_IDX, version=VERSIONS, core=st.integers(0, 1))
    def load_exact(self, idx, version, core):
        model = self.models[idx]
        ready = version in model.versions and version not in model.locks
        expected = (model.versions[version],) if ready else None
        hw = _hw(self.rig.manager.load_version, core, self._addr(idx), version)
        self._agree(
            expected,
            None if hw is None else (hw,),
            self.tables[idx].ready_exact(version),
            self.sws[idx].try_load_version(version),
            self.store.probe_version(self.keys[idx], version),
        )

    @rule(idx=ADDR_IDX, cap=VERSIONS, core=st.integers(0, 1))
    def load_latest(self, idx, cap, core):
        model = self.models[idx]
        v = model.latest(cap)
        expected = (
            (v, model.versions[v]) if v is not None and v not in model.locks
            else None
        )
        self._agree(
            expected,
            _hw(self.rig.manager.load_latest, core, self._addr(idx), cap),
            self.tables[idx].ready_latest(cap),
            self.sws[idx].try_load_latest(cap),
            self.store.probe_latest(self.keys[idx], cap),
        )

    @rule(idx=ADDR_IDX, version=VERSIONS, task=TASKS)
    def lock_exact(self, idx, version, task):
        model = self.models[idx]
        ready = version in model.versions and version not in model.locks
        expected = (model.versions[version],) if ready else None
        hw = _hw(
            self.rig.manager.lock_load_version, 0, self._addr(idx), version, task
        )
        table = self.tables[idx]
        got = table.ready_exact(version)
        if got is not None:
            table.lock(version, task)
        self._agree(
            expected,
            None if hw is None else (hw,),
            got,
            self.sws[idx].try_lock_load_version(version, task),
            self.store.probe_lock_version(self.keys[idx], version, task),
        )
        if ready:
            model.locks[version] = task

    @rule(idx=ADDR_IDX, cap=VERSIONS, task=TASKS)
    def lock_latest(self, idx, cap, task):
        model = self.models[idx]
        v = model.latest(cap)
        ready = v is not None and v not in model.locks
        expected = (v, model.versions[v]) if ready else None
        table = self.tables[idx]
        got = table.ready_latest(cap)
        if got is not None:
            table.lock(got[0], task)
        self._agree(
            expected,
            _hw(self.rig.manager.lock_load_latest, 0, self._addr(idx), cap, task),
            got,
            self.sws[idx].try_lock_load_latest(cap, task),
            self.store.probe_lock_latest(self.keys[idx], cap, task),
        )
        if ready:
            model.locks[v] = task

    def _unlock(self, idx, version, task, rename):
        model = self.models[idx]
        if model.locks.get(version) != task or version not in model.versions:
            expected = NotLockedError
        elif rename is not None and rename in model.versions:
            # Rename collision: refused before the lock is released.
            expected = VersionExistsError
        else:
            expected = None
        self._agree(
            expected,
            _hw(
                self.rig.manager.unlock_version,
                0, self._addr(idx), version, task, rename,
            ),
            _outcome(self.tables[idx].unlock, version, task, rename),
            _outcome(self.sws[idx].unlock_version, version, task, rename),
            _outcome(
                self.store.unlock_version, self.keys[idx], version, task, rename
            ),
        )
        if expected is None:
            del model.locks[version]
            if rename is not None:
                model.versions[rename] = model.versions[version]

    @rule(idx=ADDR_IDX, version=VERSIONS, task=TASKS, rename=st.one_of(st.none(), VERSIONS))
    def unlock(self, idx, version, task, rename):
        self._unlock(idx, version, task, rename)

    @precondition(lambda self: any(
        m.locks and len(m.versions) > 1 for m in self.models
    ))
    @rule(data=st.data())
    def rename_onto_existing(self, data):
        """A holder renames its version onto one that already exists."""
        candidates = [
            i for i, m in enumerate(self.models) if m.locks and len(m.versions) > 1
        ]
        idx = data.draw(st.sampled_from(candidates))
        model = self.models[idx]
        version = data.draw(st.sampled_from(sorted(model.locks)))
        target = data.draw(st.sampled_from(sorted(set(model.versions) - {version})))
        self._unlock(idx, version, model.locks[version], target)
        assert model.locks.get(version) is not None

    @precondition(lambda self: any(m.versions for m in self.models))
    @rule(floor=VERSIONS)
    def reclaim(self, floor):
        """``reclaim_below`` against the brute-force boundary rule."""
        total = 0
        for idx, model in enumerate(self.models):
            doomed = model.reclaimable(floor)
            total += len(doomed)
            assert self.tables[idx].reclaim_below(floor) == len(doomed)
            assert self.sws[idx].reclaim_below(floor) == len(doomed)
            for v in doomed:
                # The manager has no floor rule of its own: drop by hand.
                assert self.rig.manager._drop_version(0, self._addr(idx), v)
                del model.versions[v]
        assert self.store.shards[0].reclaim(floor) == total

    @precondition(lambda self: any(
        m.versions and not m.locks for m in self.models
    ))
    @rule(data=st.data())
    def free_and_reuse(self, data):
        candidates = [
            i for i, m in enumerate(self.models) if m.versions and not m.locks
        ]
        idx = data.draw(st.sampled_from(candidates))
        freed = self.rig.manager.free_ostructure(self._addr(idx))
        assert freed == len(self.models[idx].versions)
        self.models[idx] = _Model()
        self.tables[idx] = VersionTable()
        self.sws[idx] = SWOStructure()
        # The store has no free: empty the key instead.
        o = self.store.ostructure(self.keys[idx])
        assert sum(o.drop_version(v) for v in o.versions()) == freed

    # -- invariants ----------------------------------------------------------------

    @invariant()
    def version_sets_match(self):
        if not hasattr(self, "rig"):
            return
        for i, model in enumerate(self.models):
            live = sorted(self.rig.manager.versions_of(self._addr(i)), reverse=True)
            assert live == sorted(model.versions, reverse=True)

    @invariant()
    def lists_structurally_sound(self):
        if not hasattr(self, "rig"):
            return
        for i in range(ADDRS):
            lst = self.rig.manager.lists.get(self._addr(i))
            if lst is not None:
                lst.check_invariants()

    @invariant()
    def lock_state_matches(self):
        if not hasattr(self, "rig"):
            return
        for i, model in enumerate(self.models):
            lst = self.rig.manager.lists.get(self._addr(i))
            if lst is None:
                continue
            for block in lst:
                expected = model.locks.get(block.version)
                assert block.locked_by == expected

    @invariant()
    def every_tier_dumps_the_model(self):
        if not hasattr(self, "rig"):
            return
        for i, model in enumerate(self.models):
            expected = model.dump()
            lst = self.rig.manager.lists.get(self._addr(i))
            hw = {b.version: (b.value, b.locked_by) for b in lst} if lst else {}
            assert hw == expected
            assert self.tables[i].dump() == expected
            assert self.sws[i].dump() == expected
            assert self.store.ostructure(self.keys[i]).dump() == expected


ManagerModelMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=60, deadline=None
)
TestManagerModel = ManagerModelMachine.TestCase
