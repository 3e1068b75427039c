"""The O-structure Manager: versioned-memory operations over the caches.

One manager serves the whole machine (the paper places an O-structure
manager next to each L1 plus one at the L2; a single object with per-core
compressed-line state models the same protocol while keeping the functional
version store coherent by construction).

Lookup proceeds exactly as in Section III-A:

1. **Direct access** — every lookup charges one access to the address's
   root line.  If it hits the requesting core's L1 and the compressed
   version-block line there holds the wanted version among its (up to
   eight) entries, the lookup is complete.
2. **Full lookup** — otherwise that access was the root-pointer read and
   the version-block list is walked from its head.  Each visited block
   charges one hierarchy access; with pollution avoidance enabled,
   traversed blocks are *not* installed in the caches — only the block
   holding the requested version is, and it is also added to the
   compressed line (selective caching of versions accessed during full
   lookups).

Each core keeps its compressed lines in one map keyed by root L1 block,
``_direct[core][block][vaddr]``; a line holds the very version blocks
linked into the list, and an L1 eviction drops a block's lines in one pop.

Blocking semantics (uncreated or locked versions) are delivered to the
core as :class:`StallSignal`; the core registers a waiter and retries when
the address is notified (store or unlock).  Writes to an O-structure's
root line invalidate other cores' copies through the coherence directory,
which — via the hierarchy's L1-evict callback — discards their compressed
lines, the paper's "simplest course of action" for compressed-line
coherence.

Observers and fault injection reach the manager only through the
machine's :class:`~repro.sim.events.EventBus`: the ``tick``, ``op``,
``notify`` and ``drop`` events are emitted here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from ..errors import (
    FreeListExhausted,
    NotLockedError,
    ProtectionFault,
    SimulationError,
    VersionExistsError,
)
from . import isa
from .compression import CompressedLine
from .version_block import VersionBlock, VersionList

if TYPE_CHECKING:  # pragma: no cover
    from ..config import MachineConfig
    from ..sim.engine import Simulator
    from ..sim.events import EventBus
    from ..sim.hierarchy import MemoryHierarchy
    from ..sim.stats import SimStats
    from .free_list import FreeList
    from .gc import GarbageCollector
    from .page_table import PageTable


#: Sentinel waiter-queue key for cores stalled on allocation pressure
#: (free-list backpressure).  Not a real address: it never names a page
#: or a version list, and the deadlock diagnostics special-case it.
ALLOC_WAIT = -1

#: A ``notify`` subscriber's answer that swallows the wake-up: the
#: waiters stay parked (see :meth:`OStructureManager._notify`).
DROP_WAKE = object()


class StallSignal(Exception):
    """An O-structure operation must block; the core registers a waiter.

    ``vaddr`` is the address the stalled operation targeted;
    ``wait_addr`` is the waiter-queue key the core must park on (it
    differs from ``vaddr`` only for allocation backpressure, which
    parks on :data:`ALLOC_WAIT`).  ``backpressure`` marks stalls caused
    by version-block allocation pressure rather than version state.

    Stalls are routine control flow (a core parks and retries), so the
    message is built only when it is read: ``reason`` is a
    :meth:`str.format` template filled with ``details``.
    """

    def __init__(
        self,
        vaddr: int,
        reason: str,
        *details: object,
        wait_addr: int | None = None,
        backpressure: bool = False,
    ):
        self.vaddr = vaddr
        self._reason = reason
        self._details = details
        self.wait_addr = vaddr if wait_addr is None else wait_addr
        self.backpressure = backpressure

    @property
    def reason(self) -> str:
        details = self._details
        return self._reason.format(*details) if details else self._reason

    def __str__(self) -> str:
        return f"stall at 0x{self.vaddr:x}: {self.reason}"


#: Exceptions an op reports through the ``op`` event before re-raising.
_OP_ERRORS = (StallSignal, VersionExistsError, NotLockedError, ProtectionFault)


class OStructureManager:
    """Implements the seven versioned-memory operations of Section II-A."""

    __slots__ = (
        "config",
        "sim",
        "hierarchy",
        "page_table",
        "free_list",
        "gc",
        "stats",
        "events",
        "metrics",
        "ticks",
        "lists",
        "_direct",
        "_waiters",
        "roots",
        "_created",
        "_track_created",
    )

    def __init__(
        self,
        *,
        config: "MachineConfig",
        sim: "Simulator",
        hierarchy: "MemoryHierarchy",
        page_table: "PageTable",
        free_list: "FreeList",
        gc: "GarbageCollector",
        stats: "SimStats",
        events: "EventBus",
    ):
        self.config = config
        self.sim = sim
        self.hierarchy = hierarchy
        self.page_table = page_table
        self.free_list = free_list
        self.gc = gc
        self.stats = stats
        #: The machine's event bus (``tick``/``op``/``notify``/``drop``).
        self.events = events
        #: Versioned ops completed so far: the ``tick`` ordinal that fault
        #: plans and checkpoint markers trigger on.
        self.ticks = 0
        #: Metrics registry (repro.obs), or ``None``: every instrumented
        #: path below gates on a single attribute check so the disabled
        #: configuration adds no measurable work (the perf gate enforces
        #: this).
        self.metrics = None
        #: vaddr -> version list (the functional version store).
        self.lists: dict[int, VersionList] = {}
        #: Per-core compressed lines: root L1 block -> {vaddr: line}.
        self._direct: list[dict[int, dict[int, CompressedLine]]] = [
            {} for _ in range(config.num_cores)
        ]
        #: vaddr -> callbacks waiting for a store/unlock at that address.
        self._waiters: dict[int, list[Callable[[], None]]] = {}
        #: Addresses registered as data-structure roots (stall accounting).
        self.roots: set[int] = set()
        #: task id -> [(vaddr, version), ...] it created, in order.
        #: Tracked only when something can abort tasks (watchdog or an
        #: abort-task fault plan) — it is pure overhead otherwise.
        self._created: dict[int, list[tuple[int, int]]] = {}
        self._track_created = bool(
            config.watchdog_cycles > 0
            or any(f.kind == "abort-task" for f in config.faults)
        )
        hierarchy.on_l1_evict = self._on_l1_evict
        gc.on_reclaim = self._on_reclaim
        gc.tracker.on_end.append(self._on_task_end)

    # ------------------------------------------------------------------
    # Compressed-line (direct access) state.
    # ------------------------------------------------------------------

    def _on_l1_evict(self, core_id: int, block: int) -> None:
        """Discard the compressed lines an evicted L1 block carried."""
        self._direct[core_id].pop(block, None)

    def _uncache(self, vaddr: int, version: int) -> None:
        """Drop one version from every core's compressed line for ``vaddr``."""
        block = vaddr >> 6
        for core_direct in self._direct:
            lines = core_direct.get(block)
            if lines is not None and vaddr in lines:
                lines[vaddr].drop(version)

    def _on_reclaim(self, vaddr: int, version: int) -> None:
        self._uncache(vaddr, version)
        # A reclaimed block is a free block: backpressured cores retry.
        if self._waiters.get(ALLOC_WAIT):
            self._notify(ALLOC_WAIT)

    def _on_task_end(self, task_id: int) -> None:
        self._created.pop(task_id, None)
        # A task ending raises the lowest-live bound, which may make
        # shadowed blocks reclaimable: let backpressured cores re-probe.
        if self._waiters.get(ALLOC_WAIT):
            self._notify(ALLOC_WAIT)

    def _cache_version(self, core_id: int, vaddr: int, block: VersionBlock) -> None:
        """Selectively cache one version in the core's compressed line."""
        if not self.config.compression_enabled:
            return
        direct = self._direct[core_id]
        lines = direct.get(vaddr >> 6)
        if lines is None:
            lines = direct[vaddr >> 6] = {}
        line = lines.get(vaddr)
        if line is None:
            line = lines[vaddr] = CompressedLine()
        line.put(block)
        metrics = self.metrics
        if metrics is not None:
            metrics.line_occupancy.observe(len(line))

    # ------------------------------------------------------------------
    # Waiter queues.
    # ------------------------------------------------------------------

    def add_waiter(self, vaddr: int, cb: Callable[[], None]) -> None:
        cbs = self._waiters.get(vaddr)
        if cbs is None:
            self._waiters[vaddr] = [cb]
        else:
            cbs.append(cb)

    def remove_waiter(self, vaddr: int, cb: Callable[[], None]) -> bool:
        """Unregister one parked waiter.

        Returns False when the callback is no longer registered — a
        wake-up batch already popped it and will fire it shortly (the
        caller must then treat that in-flight event as stale).
        """
        cbs = self._waiters.get(vaddr)
        if cbs is None or cb not in cbs:
            return False
        cbs.remove(cb)
        if not cbs:
            del self._waiters[vaddr]
        return True

    def waiter_count(self, vaddr: int) -> int:
        return len(self._waiters.get(vaddr, ()))

    def has_waiters(self) -> bool:
        return any(self._waiters.values())

    def kick_waiters(self) -> int:
        """Re-deliver every parked wake-up (lost-wake recovery).

        Pops every waiter list and schedules the callbacks directly,
        bypassing the ``notify`` event — whose subscriber (a fault
        injector) may be what dropped the wake-ups in the first place.
        Harmless when the waits are legitimate: a premature retry that
        still cannot complete simply re-parks.  Returns the number of
        waiters woken.
        """
        woken = 0
        for vaddr in list(self._waiters):
            cbs = self._waiters.pop(vaddr, None)
            if not cbs:
                continue
            woken += len(cbs)
            self._schedule_wake(cbs, 1)
        return woken

    def _schedule_wake(self, cbs: list[Callable[[], None]], delay: int) -> None:
        """Schedule one event that fires a popped waiter list in order.

        ``cbs`` must already be detached from ``_waiters``.
        """
        if len(cbs) == 1:
            self.sim.schedule(delay, cbs[0])
        else:

            def wake() -> None:
                for cb in cbs:
                    cb()

            self.sim.schedule(delay, wake)

    def _notify(self, vaddr: int) -> None:
        """Wake every waiter on ``vaddr``; they retry next cycle.

        Wake-ups are batched into one event per notification rather than
        one event per waiter: the callbacks still run at ``now + 1`` in
        registration order (the batch fires at the sequence number the
        first waiter's event would have had, and nothing else can sneak
        events between consecutive waiter seqs), so simulated time and
        event ordering are identical to the per-waiter scheme while the
        heap churn is O(1) per notification instead of O(waiters).

        ``notify`` subscribers are asked before the waiters are popped;
        the first non-None answer is either a later delivery delay or
        :data:`DROP_WAKE`, which leaves the waiters parked.
        """
        waiters = self._waiters
        cbs = waiters.get(vaddr)
        if not cbs:
            return
        delay = 1
        subs = self.events.notify
        if subs:
            # None until a subscriber answers; later answers are ignored.
            verdict = None
            for fn in subs:
                answer = fn(vaddr)
                if verdict is None:
                    verdict = answer
            if verdict is DROP_WAKE:
                return
            if verdict is not None:
                delay = verdict
        del waiters[vaddr]
        self._schedule_wake(cbs, delay)

    # ------------------------------------------------------------------
    # Shared lookup machinery.
    # ------------------------------------------------------------------

    def register_root(self, vaddr: int) -> None:
        """Mark an address as a data-structure root for stall statistics."""
        self.roots.add(vaddr)

    def _extra(self) -> int:
        """Fire ``tick``, then return injected latency plus GC interference.

        Called exactly once per completed versioned operation, so
        ``ticks`` is the op ordinal fault plans and checkpoint markers
        trigger on.  While a collection phase is active the collector
        shares the cache/manager ports with the program, which costs one
        extra cycle per versioned operation — the source of the paper's
        ~0.1% GC overhead (Section IV-F).
        """
        self.ticks += 1
        subs = self.events.tick
        if subs:
            ticks = self.ticks
            for fn in subs:
                fn(ticks)
        lat = self.config.versioned_op_extra_latency
        if self.gc.phase_active:
            lat += 1
        return lat

    def _get_list(self, vaddr: int, create: bool) -> VersionList | None:
        self.page_table.check_versioned(vaddr)
        lst = self.lists.get(vaddr)
        if lst is None and create:
            lst = VersionList(vaddr, sorted_insert=self.config.sorted_version_lists)
            self.lists[vaddr] = lst
        return lst

    def check_head(self, block: VersionBlock) -> None:
        """The hardware head-bit check: entering a list mid-way faults."""
        if not block.head:
            raise ProtectionFault(
                f"version block @0x{block.paddr:x} entered without head bit"
            )

    def _walk_cost(self, core_id: int, lst: VersionList, visited: int, found: VersionBlock | None) -> int:
        """Charge hierarchy accesses for a list walk of ``visited`` blocks.

        With pollution avoidance only the found block installs into the
        caches; every other traversed block is fetched without installing.
        """
        lat = 0
        avoid = self.config.pollution_avoidance
        b = lst.head
        i = 0
        while b is not None and i < visited:
            install = (b is found) or not avoid
            lat += self.hierarchy.access(core_id, b.paddr, install=install)
            b = b.next
            i += 1
        return lat

    def _full_lookup(
        self,
        core_id: int,
        vaddr: int,
        *,
        version: int | None = None,
        cap: int | None = None,
    ) -> tuple[int, VersionBlock | None]:
        """Walk the list past the root :meth:`_locate` charged; (lat, block)."""
        self.stats.full_lookups += 1
        lst = self.lists.get(vaddr)
        if lst is None or lst.head is None:
            return 0, None
        self.check_head(lst.head)
        if version is not None:
            block, visited = lst.find_exact(version)
        else:
            assert cap is not None
            block, visited = lst.find_latest(cap)
        self.stats.lookup_blocks_visited += visited
        metrics = self.metrics
        if metrics is not None:
            metrics.walk_length.observe(visited)
        lat = self._walk_cost(core_id, lst, visited, block)
        if block is not None:
            self._cache_version(core_id, vaddr, block)
        return lat, block

    def _locate(
        self,
        core_id: int,
        vaddr: int,
        *,
        version: int | None = None,
        cap: int | None = None,
    ) -> tuple[int, VersionBlock | None]:
        """Direct access with full-lookup fallback; ``(latency, block)``.

        The root-line access is charged either way: the direct hit's L1
        read of the compressed line, or a full lookup's root-pointer read.
        The line may answer only if that access hit the L1 (``access``
        counts ``l1_hits`` exactly then).  ``version`` requests an exact
        id.  ``cap`` requests the latest version <= cap, which the line
        can only answer safely when it holds version ``cap`` itself or
        the list's global head (the overall latest version) <= cap.
        """
        self.page_table.check_versioned(vaddr)
        stats = self.stats
        l1_hits = stats.l1_hits
        lat = self.hierarchy.access(core_id, vaddr)
        if stats.l1_hits != l1_hits:
            lines = self._direct[core_id].get(vaddr >> 6)
            line = lines.get(vaddr) if lines is not None else None
            if line is not None:
                if version is not None:
                    block = line.get(version)
                else:
                    block = line.get(cap)
                    if block is None:
                        lst = self.lists.get(vaddr)
                        head = lst.head if lst is not None else None
                        if head is not None and head.version <= cap:
                            block = line.get(head.version)
                if block is not None:
                    stats.direct_hits += 1
                    return lat, block
        walk_lat, block = self._full_lookup(core_id, vaddr, version=version, cap=cap)
        return lat + walk_lat, block

    # ------------------------------------------------------------------
    # The seven operations.  Each public method runs its ``_``-prefixed
    # body and, when the ``op`` event has subscribers, reports the
    # outcome; internal calls go through the public names, so they are
    # reported too.
    # ------------------------------------------------------------------

    def _observed(self, name: str, body: Callable, *args: Any) -> Any:
        """Run one op body and emit ``op`` with its result or error."""
        try:
            out = body(*args)
        except _OP_ERRORS as exc:
            for fn in self.events.op:
                fn(name, args, None, exc)
            raise
        for fn in self.events.op:
            fn(name, args, out, None)
        return out

    def load_version(self, core_id: int, vaddr: int, version: int) -> tuple[int, Any]:
        """LOAD-VERSION: exact-version read (Section II-A)."""
        if self.events.op:
            return self._observed(
                isa.LOAD_VERSION, self._load_version, core_id, vaddr, version
            )
        return self._load_version(core_id, vaddr, version)

    def load_latest(self, core_id: int, vaddr: int, cap: int) -> tuple[int, tuple[int, Any]]:
        """LOAD-LATEST: highest created version <= cap."""
        if self.events.op:
            return self._observed(
                isa.LOAD_LATEST, self._load_latest, core_id, vaddr, cap
            )
        return self._load_latest(core_id, vaddr, cap)

    def store_version(
        self, core_id: int, vaddr: int, version: int, value: Any, task_id: int | None = None
    ) -> tuple[int, None]:
        """STORE-VERSION: create a new, immutable version."""
        if self.events.op:
            return self._observed(
                isa.STORE_VERSION, self._store_version,
                core_id, vaddr, version, value, task_id,
            )
        return self._store_version(core_id, vaddr, version, value, task_id)

    def lock_load_version(
        self, core_id: int, vaddr: int, version: int, task_id: int
    ) -> tuple[int, Any]:
        """LOCK-LOAD-VERSION: exact read plus lock."""
        if self.events.op:
            return self._observed(
                isa.LOCK_LOAD_VERSION, self._lock_load_version,
                core_id, vaddr, version, task_id,
            )
        return self._lock_load_version(core_id, vaddr, version, task_id)

    def lock_load_latest(
        self, core_id: int, vaddr: int, cap: int, task_id: int
    ) -> tuple[int, tuple[int, Any]]:
        """LOCK-LOAD-LATEST: capped read plus lock."""
        if self.events.op:
            return self._observed(
                isa.LOCK_LOAD_LATEST, self._lock_load_latest,
                core_id, vaddr, cap, task_id,
            )
        return self._lock_load_latest(core_id, vaddr, cap, task_id)

    def unlock_version(
        self,
        core_id: int,
        vaddr: int,
        version: int,
        task_id: int,
        new_version: int | None = None,
    ) -> tuple[int, None]:
        """UNLOCK-VERSION: release a lock, optionally renaming (Section II-A).

        When ``new_version`` is given, an unlocked version carrying the
        same value is created — the renaming step of hand-over-hand
        pipelining.
        """
        if self.events.op:
            return self._observed(
                isa.UNLOCK_VERSION, self._unlock_version,
                core_id, vaddr, version, task_id, new_version,
            )
        return self._unlock_version(core_id, vaddr, version, task_id, new_version)

    def _load_version(self, core_id: int, vaddr: int, version: int) -> tuple[int, Any]:
        lat, block = self._locate(core_id, vaddr, version=version)
        if block is None:
            raise StallSignal(vaddr, "version {} not yet created", version)
        if block.locked:
            raise StallSignal(
                vaddr, "version {} locked by {}", version, block.locked_by
            )
        return lat + self._extra(), block.value

    def _load_latest(self, core_id: int, vaddr: int, cap: int) -> tuple[int, tuple[int, Any]]:
        lat, block = self._locate(core_id, vaddr, cap=cap)
        if block is None:
            raise StallSignal(vaddr, "no version <= {} created yet", cap)
        if block.locked:
            raise StallSignal(
                vaddr,
                "latest version {} locked by {}",
                block.version,
                block.locked_by,
            )
        return lat + self._extra(), (block.version, block.value)

    def _allocate_block(self, vaddr: int) -> tuple[int, int]:
        """Allocate a version block, applying backpressure on pressure.

        When the free list and its refill budget are both spent, an
        emergency collection reclaims every provably unreachable
        shadowed block first.  If that produces nothing but blocks are
        still queued (they may become unreachable as tasks end), the
        requesting core is stalled on :data:`ALLOC_WAIT`; only when the
        queues are empty — reclamation provably cannot free anything —
        does :class:`FreeListExhausted` reach software.
        """
        metrics = self.metrics
        if metrics is not None:
            depth = self.free_list.free_count
            metrics.free_depth.observe(depth)
            metrics.free_depth_gauge.set(depth)
        try:
            return self.free_list.allocate()
        except FreeListExhausted:
            if not self.config.allocation_backpressure:
                raise
        self.gc.emergency_collect()
        if self.free_list.free_count:
            return self.free_list.allocate()
        if self.gc.reclaim_pending():
            self.stats.backpressure_stalls += 1
            raise StallSignal(
                vaddr,
                "version-block free list exhausted; stalling for reclamation",
                wait_addr=ALLOC_WAIT,
                backpressure=True,
            )
        raise FreeListExhausted(
            "version-block free list empty, refill budget spent, and no "
            "shadowed block can ever be reclaimed"
        )

    def _store_version(
        self, core_id: int, vaddr: int, version: int, value: Any, task_id: int | None
    ) -> tuple[int, None]:
        lst = self._get_list(vaddr, create=True)
        assert lst is not None
        lat = self._extra()
        # Root pointer / predecessor line is modified: exclusive access,
        # which also invalidates other cores' compressed lines.
        lat += self.hierarchy.access(core_id, vaddr, write=True)
        paddr, trap_lat = self._allocate_block(vaddr)
        lat += trap_lat
        self.gc.maybe_trigger()
        block = VersionBlock(version, value, paddr)
        try:
            shadowed, visited = lst.insert(block)
        except SimulationError as exc:
            self.free_list.release(paddr)
            raise VersionExistsError(str(exc)) from exc
        # Walk to the insertion point (sorted mode), then acquire the two
        # cache lines — predecessor and new block — in address order.
        if visited:
            self.stats.lookup_blocks_visited += visited
            lat += self._walk_cost(core_id, lst, visited, None)
        # The new block is composed in full by the hardware, so its line
        # is write-allocated without fetching stale memory.
        lat += self.hierarchy.write_no_fetch(core_id, paddr)
        self.stats.versions_created += 1
        if shadowed is not None:
            self.gc.register_shadowed(shadowed, lst, block.version)
        if task_id is not None and self._track_created:
            self._created.setdefault(task_id, []).append((vaddr, version))
        self._cache_version(core_id, vaddr, block)
        self._notify(vaddr)
        return lat, None

    def _lock_load_version(
        self, core_id: int, vaddr: int, version: int, task_id: int
    ) -> tuple[int, Any]:
        lat, block = self._locate(core_id, vaddr, version=version)
        if block is None:
            raise StallSignal(vaddr, "version {} not yet created", version)
        if block.locked:
            raise StallSignal(
                vaddr, "version {} locked by {}", version, block.locked_by
            )
        return lat + self._lock(core_id, vaddr, block, task_id) + self._extra(), block.value

    def _lock_load_latest(
        self, core_id: int, vaddr: int, cap: int, task_id: int
    ) -> tuple[int, tuple[int, Any]]:
        lat, block = self._locate(core_id, vaddr, cap=cap)
        if block is None:
            raise StallSignal(vaddr, "no version <= {} created yet", cap)
        if block.locked:
            raise StallSignal(
                vaddr,
                "latest version {} locked by {}",
                block.version,
                block.locked_by,
            )
        lat += self._lock(core_id, vaddr, block, task_id) + self._extra()
        return lat, (block.version, block.value)

    def _lock(self, core_id: int, vaddr: int, block: VersionBlock, task_id: int) -> int:
        """Gain exclusive access to the block's line and set locked-by."""
        block.locked_by = task_id
        self.stats.versions_locked += 1
        lat = self.hierarchy.access(core_id, block.paddr, write=True)
        self._cache_version(core_id, vaddr, block)
        return lat

    def _unlock_version(
        self,
        core_id: int,
        vaddr: int,
        version: int,
        task_id: int,
        new_version: int | None,
    ) -> tuple[int, None]:
        lat, block = self._locate(core_id, vaddr, version=version)
        if block is None:
            raise NotLockedError(f"version {version} of 0x{vaddr:x} does not exist")
        if block.locked_by != task_id:
            raise NotLockedError(
                f"task {task_id} does not hold version {version} of 0x{vaddr:x} "
                f"(locked_by={block.locked_by})"
            )
        if new_version is not None:
            # Create the renamed copy *before* releasing the lock: the
            # allocation can stall on free-list backpressure, and the
            # op's retry must find its pre-state (the lock) intact.
            slat, _ = self.store_version(core_id, vaddr, new_version, block.value, task_id)
            lat += slat
        block.locked_by = None
        self.stats.versions_unlocked += 1
        lat += self.hierarchy.access(core_id, block.paddr, write=True)
        self._cache_version(core_id, vaddr, block)
        self._notify(vaddr)
        return lat + self._extra(), None

    # ------------------------------------------------------------------
    # Abort-and-retry rollback (watchdog / fault-injection recovery).
    # ------------------------------------------------------------------

    def can_abort_task(self, task_id: int) -> bool:
        """Is rolling back ``task_id`` safe right now?

        Unsafe when a version the task created was already locked by a
        *successor* (e.g. a renamed ticket baton the next task grabbed):
        dropping it is impossible and leaving it means the replay's
        re-store would fault on a duplicate.
        """
        for vaddr, version in self._created.get(task_id, ()):
            lst = self.lists.get(vaddr)
            if lst is None:
                continue
            block, _ = lst.find_exact(version)
            if block is not None and block.locked_by not in (None, task_id):
                return False
        return True

    def abort_task(self, core_id: int, task_id: int) -> int:
        """Roll back ``task_id``'s version-store footprint; returns drops.

        Releases every lock the task holds via UNLOCK-VERSION (waking
        the waiters that deadlocked on them) and drops the uncommitted
        versions it created, newest first.  The caller (the core's
        ``abort_and_retry``) re-runs the task generator from scratch;
        replay is value-deterministic because a task's reads are capped
        at its own id and versions at or below it are immutable.
        """
        # Release locks first: a version the task created *and* locked
        # must be unlocked before the drop below can remove it.  Going
        # through self.unlock_version reports each unlock on the ``op``
        # event (the sanitizer mirrors it) and notifies its waiters.
        for vaddr, lst in list(self.lists.items()):
            for block in list(lst):
                if block.locked_by == task_id:
                    self.unlock_version(core_id, vaddr, block.version, task_id)
        dropped = 0
        for vaddr, version in reversed(self._created.pop(task_id, [])):
            if self._drop_version(core_id, vaddr, version):
                dropped += 1
        return dropped

    def _drop_version(self, core_id: int, vaddr: int, version: int) -> bool:
        """Remove one uncommitted version (abort rollback); True if dropped."""
        lst = self.lists.get(vaddr)
        if lst is None:
            return False
        block, _ = lst.find_exact(version)
        if block is None or block.locked:
            # Already reclaimed, or handed off locked to a successor
            # (can_abort_task refuses the latter before it gets here).
            return False
        lst.remove(block)
        # Purge any GC queue entry or a later phase double-releases it.
        self.gc.forget_block(block)
        self.free_list.release(block.paddr)
        self.hierarchy.invalidate_everywhere(block.paddr)
        self._uncache(vaddr, version)
        for fn in self.events.drop:
            fn(vaddr, version)
        if self._waiters.get(ALLOC_WAIT):
            self._notify(ALLOC_WAIT)
        return True

    # ------------------------------------------------------------------
    # O-structure lifecycle (Section III-C).
    # ------------------------------------------------------------------

    def versions_of(self, vaddr: int) -> list[int]:
        """All live version ids of an address (newest first if sorted)."""
        lst = self.lists.get(vaddr)
        return lst.versions() if lst is not None else []

    def free_ostructure(self, vaddr: int) -> int:
        """Release every version block of ``vaddr``; returns count freed.

        The caller must guarantee quiescence (no unfinished task touches
        the address); locked versions or parked waiters indicate a
        violation and fault.
        """
        if self.events.op:
            return self._observed("free_ostructure", self._free_ostructure, vaddr)
        return self._free_ostructure(vaddr)

    def _free_ostructure(self, vaddr: int) -> int:
        lst = self.lists.pop(vaddr, None)
        if lst is None:
            return 0
        if self._waiters.get(vaddr):
            self.lists[vaddr] = lst
            raise ProtectionFault(
                f"freeing O-structure 0x{vaddr:x} with blocked waiters"
            )
        count = 0
        for block in lst:
            if block.locked:
                self.lists[vaddr] = lst
                raise ProtectionFault(
                    f"freeing O-structure 0x{vaddr:x} with locked version "
                    f"{block.version}"
                )
        for block in list(lst):
            lst.remove(block)
            self.free_list.release(block.paddr)
            self.hierarchy.invalidate_everywhere(block.paddr)
            count += 1
        # Shadowed blocks of this address may still sit on the GC's
        # queues; purge them or a later phase double-releases the paddrs
        # just returned to the free list.
        self.gc.forget_address(vaddr)
        for core_direct in self._direct:
            lines = core_direct.get(vaddr >> 6)
            if lines is not None:
                lines.pop(vaddr, None)
        return count

    def blocked_waiter_report(self) -> list[str]:
        """Describe parked waiters (deadlock diagnostics)."""
        out = []
        for vaddr, cbs in self._waiters.items():
            if not cbs:
                continue
            if vaddr == ALLOC_WAIT:
                out.append(
                    f"{len(cbs)} waiter(s) on version-block allocation "
                    f"(free-list backpressure)"
                )
            else:
                out.append(f"{len(cbs)} waiter(s) on 0x{vaddr:x}")
        return out
