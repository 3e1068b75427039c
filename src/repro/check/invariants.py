"""Structural invariant checks over a live :class:`~repro.sim.machine.Machine`.

``check_invariants(machine)`` inspects the whole O-structure subsystem and
returns a list of human-readable problem strings (empty when healthy).
The checks deliberately reach into private state — this module is the
white-box auditor for the internal caches and index structures of the
direct-lookup path:

1. every version list is sorted, duplicate-free, head-bit-consistent;
2. no physical block address is both live (linked into a list or queued
   for GC) and on the free list, and no paddr is live twice;
3. every per-core compressed-line entry is backed by the block actually
   linked into the address's version list (a stale entry here is how a
   GC-reclaimed version would get served);
4. GC shadowed/pending blocks are flagged, still linked, and not freed;
5. parked waiters only exist on versioned pages.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.machine import Machine


def check_invariants(machine: "Machine") -> list[str]:
    """Validate structural invariants; returns problem descriptions."""
    problems: list[str] = []
    problems.extend(_check_version_lists(machine))
    problems.extend(_check_paddr_accounting(machine))
    problems.extend(_check_compressed_lines(machine))
    problems.extend(_check_gc_lists(machine))
    problems.extend(_check_waiters(machine))
    return problems


def _check_version_lists(machine: "Machine") -> list[str]:
    problems = []
    for vaddr, lst in machine.manager.lists.items():
        if lst.vaddr != vaddr:
            problems.append(
                f"list keyed 0x{vaddr:x} believes it is 0x{lst.vaddr:x}"
            )
        try:
            lst.check_invariants()
        except SimulationError as exc:
            problems.append(f"version list 0x{vaddr:x}: {exc}")
    return problems


def _check_paddr_accounting(machine: "Machine") -> list[str]:
    """Live blocks and the free list must partition the paddr space."""
    problems = []
    free = machine.free_list.paddrs()
    free_set = set(free)
    if len(free_set) != len(free):
        problems.append("free list contains duplicate paddrs")
    live: dict[int, str] = {}
    for vaddr, lst in machine.manager.lists.items():
        for block in lst:
            where = f"v{block.version}@0x{vaddr:x}"
            if block.paddr in live:
                problems.append(
                    f"paddr 0x{block.paddr:x} linked twice: "
                    f"{live[block.paddr]} and {where}"
                )
            live[block.paddr] = where
            if block.paddr in free_set:
                problems.append(
                    f"paddr 0x{block.paddr:x} ({where}) is both linked "
                    f"into a version list and on the free list"
                )
    return problems


def _check_compressed_lines(machine: "Machine") -> list[str]:
    problems = []
    mgr = machine.manager
    for core_id, direct in enumerate(mgr._direct):
        for lines in direct.values():
            for vaddr, line in lines.items():
                lst = mgr.lists.get(vaddr)
                for version, block in line._blocks.items():
                    if lst is None:
                        problems.append(
                            f"core {core_id} compressed entry v{version}"
                            f"@0x{vaddr:x} outlives its freed O-structure"
                        )
                        continue
                    linked, _ = lst.find_exact(version)
                    if linked is not block:
                        state = "reclaimed" if linked is None else "replaced"
                        problems.append(
                            f"core {core_id} compressed entry v{version}"
                            f"@0x{vaddr:x} is {state}: the cached block is "
                            f"not the one linked into the version list"
                        )
    return problems


def _check_gc_lists(machine: "Machine") -> list[str]:
    problems = []
    free_set = set(machine.free_list.paddrs())
    for kind, pairs in (
        ("shadowed", machine.gc._shadowed),
        ("pending", machine.gc._pending),
    ):
        for block, vlist in pairs:
            where = f"gc {kind} block v{block.version}@0x{vlist.vaddr:x}"
            if not block.shadowed:
                problems.append(f"{where} lost its shadowed flag")
            if block.paddr in free_set:
                problems.append(f"{where} paddr already on the free list")
            if machine.manager.lists.get(vlist.vaddr) is not vlist:
                problems.append(f"{where} references a dropped version list")
                continue
            linked, _ = vlist.find_exact(block.version)
            if linked is not block:
                problems.append(f"{where} detached from its version list")
    return problems


def _check_waiters(machine: "Machine") -> list[str]:
    from ..ostruct.manager import ALLOC_WAIT

    problems = []
    for vaddr, cbs in machine.manager._waiters.items():
        if vaddr == ALLOC_WAIT:
            # Allocation-backpressure parking slot, not a page address.
            continue
        if cbs and not machine.page_table.is_versioned(vaddr):
            problems.append(
                f"{len(cbs)} waiter(s) parked on non-versioned page "
                f"address 0x{vaddr:x}"
            )
    return problems
