"""Macro-op fusion: a fast-path interpreter for non-stalling op runs.

The per-op execution pipeline costs one full engine round trip per
micro-op: ``schedule`` the core's resume, pop it from the wheel, re-enter
``Core._advance``, ``gen.send`` one op, dispatch, ``schedule`` again.
For the dominant op classes — ``compute`` and conventional ``load`` /
``store`` — nothing in that round trip can observably differ from just
*keeping going*: these ops never stall, never wake a waiter, and never
touch O-structure state.  :func:`run_block` therefore drains a run of
them in a single engine event, advancing the clock inline between ops
via :meth:`~repro.sim.engine.Simulator.try_advance`.

Byte-identity is by construction, not by approximation:

- every op still dispatches at its exact unfused cycle — the inline
  advance is granted only when *no* pending event anywhere in the kernel
  could fire first, i.e. precisely when the kernel would have popped our
  own resume with nothing in between.  Whenever another core, a GC
  phase, a fault event or a watchdog tick is due, the interpreter falls
  back to the ordinary ``schedule``-a-resume tail and the block ends.
- every op is dispatched through the same state mutations in the same
  order: stats counters, page-table checks, functional memory, hierarchy
  access, ``retire`` subscribers.  Versioned / lock / task ops are
  never fused — they are handed back to ``Core._execute`` untouched, so
  stalls, aborts, fault injection, the sanitizer and checkpoint markers
  all observe them per-op exactly as before.
- conventional accesses that hit in the L1 are charged through an
  inlined copy of ``access``'s hit branch (lookup + recency bump + hit
  counter + exclusive acquisition on writes).  A missed ``lookup``
  mutates nothing, so probing first and falling back to the full
  hierarchy walk is byte-identical to always walking.

Fusion is controlled by ``MachineConfig.fused`` (default on); the
per-op tier it disables is the reference the byte-identity tests compare
against.  Fusion telemetry lives in :class:`FuseStats` on the machine,
deliberately *outside* ``SimStats``: simulation statistics must stay
byte-identical between tiers, and these counters by construction differ.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from ..ostruct import isa

if TYPE_CHECKING:  # pragma: no cover
    from .core import Core

_COMPUTE = isa.COMPUTE
_LOAD = isa.LOAD
_STORE = isa.STORE

#: The op kinds the interpreter may retire inline: never stall, never
#: wake a waiter, never touch O-structure or lock state.  The core
#: consults this before entering the interpreter, so a lone versioned op
#: between two stalls pays nothing for the fusion machinery.
FUSIBLE = frozenset({_COMPUTE, _LOAD, _STORE})

#: Fusible entries a core skips after a block that fused nothing.  On a
#: busy multi-core machine the neighbours' events land inside almost
#: every op latency, so advances are refused and the interpreter's
#: entry/exit cost is pure overhead; the cooldown backs a congested core
#: off to the per-op path and re-probes every ``COOLDOWN + 1``-th
#: opportunity.  Purely a host-time heuristic: fusing or not fusing any
#: given op cannot change simulated behaviour, and the cooldown state
#: itself is a deterministic function of the (deterministic) schedule.
COOLDOWN = 31


class FuseStats:
    """Host-side fusion telemetry, kept off ``SimStats`` on purpose."""

    __slots__ = ("blocks", "ops", "fused_ops", "event_breaks", "op_breaks")

    def __init__(self) -> None:
        #: Fused blocks executed (interpreter entries; the core only
        #: enters it when the op stream is at a fusible op).
        self.blocks = 0
        #: Fusible ops retired by the interpreter.
        self.ops = 0
        #: Granted inline clock advances — each one is a schedule/pop
        #: engine round trip that was actually elided.
        self.fused_ops = 0
        #: Blocks ended because another pending event had to fire first.
        self.event_breaks = 0
        #: Blocks ended by a non-fusible (versioned / lock / task) op.
        self.op_breaks = 0

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FuseStats {self.as_dict()}>"


def make_interpreter(core: "Core"):
    """Build ``core``'s fused-block interpreter.

    The interpreter is entered once per engine event on the core's
    advance path, so its prologue is on the critical path even for runs
    that fuse nothing (a lone versioned op between two stalls).  All
    machine-lifetime-stable state — caches, directory, stats objects,
    config scalars, the page table, functional memory — is therefore
    captured in closure cells *once*, at machine build time; a call
    binds only what can legitimately differ per block (the ``retire``
    subscribers and the current task id).

    The returned ``run_block(gen, send_value)`` drives ``gen`` through
    one fused block and returns the op that ended it: ``None`` when the
    continuation is already arranged (resume scheduled, or the task
    finished), else the pending non-fusible op — not yet dispatched —
    for the caller's ordinary per-op path.
    """
    m = core.machine
    events = m.events
    stats = m.stats
    fstats = m.fuse_stats
    hierarchy = m.hierarchy
    cid = core.core_id
    l1_lookup = hierarchy.l1s[cid].lookup
    l1_mark_dirty = hierarchy.l1s[cid].mark_dirty
    acquire_exclusive = hierarchy.directory.acquire_exclusive
    hit_latency = m.config.l1.hit_latency
    issue_width = m.config.issue_width
    check_conventional = m.page_table.check_conventional
    mem = m.mem
    mem_get = mem.get
    sim = core.sim
    try_advance = sim.try_advance
    access = hierarchy.access
    schedule_resume = core._schedule_resume

    def run_block(
        gen: Generator[tuple, Any, Any], first_op: tuple
    ) -> tuple | None:
        # Stable for the whole block: subscribers can only be
        # (de)attached by an event, and an unbroken fused run fires none.
        retire = events.retire
        tid = core.current.task_id if retire else 0  # type: ignore[union-attr]
        send = gen.send
        op = first_op
        # Counter deltas batched in locals and flushed once per block:
        # nothing can observe the machine mid-block (no event fires
        # inside an unbroken run, and no hierarchy/trace callback reads
        # these counters), so one RMW per block replaces one per op.
        n_ops = 0
        d_compute = 0
        d_loads = 0
        d_stores = 0
        d_hits = 0
        d_busy = 0
        # True only on the refused-advance exit, where the final op's
        # round trip was *not* elided (n_fused = n_ops - 1; every other
        # exit follows a granted advance, so n_fused = n_ops).
        event_break = False
        try:
            while True:
                kind = op[0]
                if kind == _COMPUTE:
                    n = op[1]
                    d_compute += n
                    latency = -(-n // issue_width)  # ceil division
                    result = None
                elif kind == _LOAD:
                    addr = op[1]
                    check_conventional(addr)
                    d_loads += 1
                    block = addr >> 6
                    if l1_lookup(block):
                        # access()'s L1-hit branch, inlined: lookup has
                        # already bumped recency exactly as access would,
                        # and a missed lookup mutates nothing, so falling
                        # back to the full walk is byte-identical.
                        d_hits += 1
                        latency = hit_latency
                    else:
                        latency = access(cid, addr)
                    result = mem_get(addr, 0)
                elif kind == _STORE:
                    addr = op[1]
                    check_conventional(addr)
                    d_stores += 1
                    mem[addr] = op[2]
                    block = addr >> 6
                    if l1_lookup(block):
                        d_hits += 1
                        latency = hit_latency + acquire_exclusive(cid, block)
                        l1_mark_dirty(block)
                    else:
                        latency = access(cid, addr, write=True)
                    result = None
                else:
                    fstats.op_breaks += 1
                    return op
                n_ops += 1
                d_busy += latency
                if retire:
                    for fn in retire:
                        fn(cid, tid, op, latency, False)
                if sim._inline and not (
                    sim._count or sim._over or sim._solo_fn is not None
                ):
                    # Nothing is pending anywhere in the kernel, so the
                    # drain loop's next pop could only be our own resume:
                    # jump the clock without the full occupancy scan.
                    # This is the steady state of a sequential run.
                    sim.now += latency
                elif not try_advance(latency):
                    # Some pending event is due at or before our retire
                    # time (or the drain is bounded): yield to the kernel
                    # exactly like the per-op path does.  A block that
                    # fused nothing puts the core on cooldown — under
                    # multi-core congestion almost every advance is
                    # refused, and probing every entry is pure overhead.
                    event_break = True
                    fstats.event_breaks += 1
                    if n_ops == 1:
                        core._fuse_cooldown = COOLDOWN
                    core._resume_value = result
                    schedule_resume(latency)
                    return None
                try:
                    op = send(result)
                except StopIteration as stop:
                    core._finish_task(stop.value)
                    return None
        finally:
            fstats.blocks += 1
            fstats.ops += n_ops
            fstats.fused_ops += n_ops - 1 if event_break else n_ops
            if n_ops:
                m.retired_ops += n_ops
                core.busy_cycles += d_busy
                if d_compute:
                    stats.compute_ops += d_compute
                if d_loads:
                    stats.loads += d_loads
                if d_stores:
                    stats.stores += d_stores
                if d_hits:
                    stats.l1_hits += d_hits

    return run_block
