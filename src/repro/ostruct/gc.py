"""Hardware garbage collection of version blocks (Section III-B).

A version becomes *shadowed* once a younger (higher-id) version of the
same location is created.  The collector keeps two lists:

- the **shadowed list**: blocks that may still be read by active tasks but
  will become dead at some future point;
- the **pending list**: a snapshot of the shadowed list taken when a
  collection phase begins.

When a phase starts, the shadowed list moves to the pending list and a
bound ``Y`` is recorded: the *youngest* task id the tracker has ever
seen begin, or the highest *shadowing version id* among the pending
blocks, whichever is larger.  Once the *oldest* (lowest-id) live task is
younger than ``Y``, every pending block is unreachable — rule 1 means
any reader of a shadowed version has an id below the shadowing version
(<= Y by construction), and rule 3 forbids spawning tasks below the
lowest live id — so the pending list drains to the free list.  Phases
are triggered by the free-list watermark.

The task-id half of the bound must be ``tracker.max_seen``, not the
highest *currently active* id: a high-id task that already ended may
have shadowed versions that lower-id tasks — queued but not yet begun —
can still read.  The shadowing-version half matters because renaming
(UNLOCK-VERSION with a rename target) creates version ids above every
begun task — e.g. the ticket protocol naming the *next mutator* — and
readers of the version it shadows can hold any id below it.  Bounding by
``max_seen`` alone lets the phase finalize while those readers are still
queued, reclaiming versions they are about to load (both holes are
caught by the repro.check sanitizer's reclaim audit).

Newly shadowed versions registered during a phase go to the shadowed list
as usual and wait for the next phase; that is exactly what makes the
collection on-the-fly rather than stop-the-world.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .version_block import VersionBlock, VersionList

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.task import TaskTracker
    from ..sim.events import EventBus
    from ..sim.hierarchy import MemoryHierarchy
    from ..sim.stats import SimStats
    from .free_list import FreeList


class GarbageCollector:
    """Shadowed/pending-list collector over the version-block store."""

    def __init__(
        self,
        *,
        free_list: "FreeList",
        tracker: "TaskTracker",
        hierarchy: "MemoryHierarchy",
        stats: "SimStats",
        events: "EventBus",
        watermark: int,
        enabled: bool = True,
    ):
        self.free_list = free_list
        self.tracker = tracker
        self.hierarchy = hierarchy
        self.stats = stats
        #: The machine's event bus (``shadow``/``reclaim``/``gc_phase``).
        self.events = events
        self.watermark = watermark
        self.enabled = enabled
        self._shadowed: list[tuple[VersionBlock, VersionList]] = []
        self._pending: list[tuple[VersionBlock, VersionList]] = []
        self._phase_active = False
        self._recorded_youngest: int = -1
        #: Epoch pin (repro.recovery): the ``(vaddr, version)`` frontier
        #: of the latest checkpoint.  A pinned block is never reclaimed,
        #: so a restore's replay can always re-reach the checkpointed
        #: state — the same idea as the paper's §III-B reclaim bound,
        #: applied at checkpoint rather than task granularity.  ``None``
        #: (the default, when no checkpointer is attached) costs one
        #: attribute check per finalized block.
        self.epoch_pin: frozenset[tuple[int, int]] | None = None
        #: Times the pin was dropped to break allocation-pressure
        #: starvation (see :meth:`emergency_collect`).
        self.pin_drops = 0
        #: ``fn(vaddr, version)`` called for every reclaimed version
        #: before the ``reclaim`` event: the manager drops its
        #: compressed-line entries.
        self.on_reclaim: Callable[[int, int], None] | None = None
        tracker.on_end.append(self._on_task_end)

    def _fire_phase(self, event: str) -> None:
        for fn in self.events.gc_phase:
            fn(event)

    def _reclaim(self, block: VersionBlock, vlist: VersionList) -> None:
        """Return one unreachable block to the free list."""
        vlist.remove(block)
        self.free_list.release(block.paddr)
        vaddr, version = vlist.vaddr, block.version
        if self.on_reclaim is not None:
            self.on_reclaim(vaddr, version)
        for fn in self.events.reclaim:
            fn(vaddr, version)
        self.stats.gc_reclaimed += 1

    # -- bookkeeping ---------------------------------------------------------

    @property
    def shadowed_count(self) -> int:
        return len(self._shadowed)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def phase_active(self) -> bool:
        return self._phase_active

    def register_shadowed(
        self, block: VersionBlock, vlist: VersionList, by: int
    ) -> None:
        """Record that ``block`` is now shadowed by version id ``by``."""
        if block.shadowed:
            return
        block.shadowed = True
        block.shadowed_by = by
        self._shadowed.append((block, vlist))
        self.stats.shadowed_registered += 1
        for fn in self.events.shadow:
            fn(vlist.vaddr, block.version)

    def forget_block(self, block: VersionBlock) -> int:
        """Drop every queued entry for exactly this block; returns count.

        Called when an aborted task's uncommitted version is rolled
        back: the abort path releases the paddr itself, so a queue entry
        left behind would double-release it in a later phase.
        """
        before = len(self._shadowed) + len(self._pending)
        self._shadowed = [it for it in self._shadowed if it[0] is not block]
        self._pending = [it for it in self._pending if it[0] is not block]
        return before - len(self._shadowed) - len(self._pending)

    def forget_address(self, vaddr: int) -> int:
        """Drop every queued (block, list) pair of ``vaddr``; returns count.

        Called when an O-structure is freed wholesale: the free path
        releases every block itself, so entries left on the shadowed or
        pending lists would double-release those paddrs in a later phase.
        """
        before = len(self._shadowed) + len(self._pending)
        self._shadowed = [it for it in self._shadowed if it[1].vaddr != vaddr]
        self._pending = [it for it in self._pending if it[1].vaddr != vaddr]
        return before - len(self._shadowed) - len(self._pending)

    # -- phases ---------------------------------------------------------------

    def maybe_trigger(self) -> None:
        """Watermark check; called by the manager on every allocation."""
        if (
            self.enabled
            and not self._phase_active
            and self._shadowed
            and self.free_list.free_count < self.watermark
        ):
            self.start_phase()

    def start_phase(self) -> None:
        """Begin a collection phase (hardware- or software-invoked)."""
        if self._phase_active or not self._shadowed:
            return
        self._phase_active = True
        self._pending = self._shadowed
        self._shadowed = []
        # Bound by the highest id that ever *began* (see module docstring)
        # — not the highest currently-active id: an ended high-id task may
        # have shadowed versions still readable by queued lower-id tasks.
        # Renaming can push a *shadowing version id* above every begun
        # task (UNLOCK-VERSION renames a location to a designated future
        # consumer's id, e.g. the ticket protocol naming the next
        # mutator), and readers of the shadowed version can hold any id
        # below the shadowing one — so the bound must also dominate every
        # pending block's ``shadowed_by``.
        self._recorded_youngest = max(
            [self.tracker.max_seen]
            + [blk.shadowed_by for blk, _ in self._pending]
        )
        self.stats.gc_phases += 1
        self._fire_phase("start")
        self._try_finalize()

    def _on_task_end(self, task_id: int) -> None:
        if self._phase_active:
            self._try_finalize()

    # -- allocation-pressure (emergency) collection ---------------------------

    def reclaim_pending(self) -> bool:
        """Is there anything a future reclaim could possibly free?

        Used by the manager's backpressure path to decide between
        stalling (a queued block may become unreachable as tasks end)
        and raising the terminal :class:`FreeListExhausted` (nothing is
        queued, so no reclaim will ever produce a block).
        """
        return bool(self._shadowed or self._pending)

    def emergency_collect(self) -> int:
        """Allocation-pressure collection; returns blocks freed.

        The watermark phases bound reclamation by task ids — a phase
        cannot finalize while any task live at its start is still live
        (see the module docstring) — which is useless under allocation
        pressure: the stalled requester is itself live, so waiting on a
        phase would self-deadlock.  Instead, reclaim per block with a
        precise reachability check.  A queued block is freed iff

        - it is not locked and not its list's head,
        - it is not the overall latest version of its address (a
          LOAD-LATEST with a high cap must still find it),
        - every live task id is *above* its version — rule 1 means a
          task only addresses versions at or above its own id, so no
          live task can exact-read it — and
        - no live task's capped LOAD-LATEST selects it.

        This is the same safety argument the watermark phase makes in
        aggregate, applied block-by-block, and it satisfies the
        sanitizer's per-reclaim audit.

        An active epoch pin (repro.recovery) additionally holds the
        checkpoint's version frontier.  A pin must bound, not starve:
        if a pass frees nothing *because* of the pin, the pin is dropped
        — forfeiting the rollback point, counted in ``pin_drops`` — and
        the pass runs once more, so allocation pressure always wins over
        recoverability (cf. space-bounded multiversion GC).  The drop is
        deterministic, hence identical in a replay.
        """
        if not self.enabled:
            return 0
        self.stats.emergency_gc_phases += 1
        self._fire_phase("emergency")
        freed, pin_kept = self._emergency_pass()
        if freed == 0 and pin_kept > 0:
            self.epoch_pin = None
            self.pin_drops += 1
            freed, _ = self._emergency_pass()
        if self._phase_active and not self._pending:
            self._phase_active = False
            self._fire_phase("end")
        return freed

    def _emergency_pass(self) -> tuple[int, int]:
        """One reachability sweep; returns ``(freed, kept-by-pin)``."""
        live = sorted(self.tracker.live_ids)
        lowest = live[0] if live else None
        pin = self.epoch_pin
        freed = 0
        pin_kept = 0
        for queue in (self._pending, self._shadowed):
            kept: list[tuple[VersionBlock, VersionList]] = []
            for block, vlist in queue:
                if self._reachable(block, vlist, live, lowest):
                    kept.append((block, vlist))
                    continue
                if pin is not None and (vlist.vaddr, block.version) in pin:
                    self.stats.gc_pin_kept += 1
                    pin_kept += 1
                    kept.append((block, vlist))
                    continue
                self._reclaim(block, vlist)
                freed += 1
            queue[:] = kept
        return freed, pin_kept

    def _reachable(
        self,
        block: VersionBlock,
        vlist: VersionList,
        live: list[int],
        lowest: int | None,
    ) -> bool:
        if block.locked or vlist.head is block:
            return True
        # Never reclaim the overall latest version of an address.  In
        # sorted mode the head check covers this; with unsorted lists
        # the head is merely the most recent insertion.
        latest = max((b.version for b in vlist), default=-1)
        if block.version >= latest:
            return True
        if lowest is not None and lowest <= block.version:
            return True  # exact-read safety: some live task may address it
        # Renaming safety: readers of a shadowed version always have ids
        # below the shadowing version id (which may exceed every begun
        # task's id), and future tasks never spawn below the lowest live
        # id — so the block is free only once the lowest live id reaches
        # its shadower.
        if lowest is not None and lowest < block.shadowed_by:
            return True
        for t in live:
            found, _ = vlist.find_latest(t)
            if found is block:
                return True
        return False

    def _try_finalize(self) -> None:
        if self._pending:  # an emptied pending list just closes the phase
            oldest = self.tracker.lowest_active()
            if oldest is not None and oldest <= self._recorded_youngest:
                return
        self._finalize()

    def _finalize(self) -> None:
        """Drain the pending list into the free list."""
        pin = self.epoch_pin
        kept: list[tuple[VersionBlock, VersionList]] = []
        for block, vlist in self._pending:
            # Defensive checks: a locked block or a list head (the current
            # latest version) is never reclaimed; it returns to the
            # shadowed list and waits for a later phase.
            if block.locked or vlist.head is block:
                kept.append((block, vlist))
                continue
            # Epoch pin (repro.recovery): a block on the latest
            # checkpoint's frontier waits for the next marker to advance
            # the pin past it.
            if pin is not None and (vlist.vaddr, block.version) in pin:
                self.stats.gc_pin_kept += 1
                kept.append((block, vlist))
                continue
            # The dead block's cache lines are left alone: they may also
            # hold live version blocks (4 per 64 B line), and a stale dead
            # block is harmless — coherence handles the line when the
            # free-list reuses the address.
            self._reclaim(block, vlist)
        self._pending = []
        for item in kept:
            item[0].shadowed = True
            self._shadowed.append(item)
        self._phase_active = False
        self._fire_phase("end")
