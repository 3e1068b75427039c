"""Sorted singly linked list (Section IV-D's canonical irregular workload).

Three variants over one node pool layout:

- ``unversioned``: conventional pointers, one sequential program;
- ``versioned``: task-per-operation with the paper's protocol —
  ordered entry through a ticket O-structure, hand-over-hand
  LOCK-LOAD-LATEST traversal for mutators, snapshot LOAD-LATEST traversal
  for readers, pointer renaming via STORE-VERSION on mutation;
- the versioned variant runs on 1 core (self-baseline) or N cores.

Node pool: node ``i`` has its key at ``key_base + 16*i`` (conventional)
and its next pointer at ``next_base + 4*i`` (an O-structure word).  Node
id 0 is the null pointer.  Deleted nodes are not recycled during a run
(Section III-C's quiescence rule), which is also what preserves snapshot
isolation for concurrent readers mid-traversal.
"""

from __future__ import annotations

from typing import Generator

from ..config import MachineConfig
from ..errors import ConfigError
from ..ostruct import isa
from ..runtime.task import Task
from ..sim.machine import Machine
from .base import (
    ENTER_LOAD,
    FIRST_TASK_ID,
    HOP_COMPUTE,
    WorkloadRun,
    plan_entries,
    run_variant,
)
from .opgen import DELETE, INSERT, LOOKUP

#: Cycles charged for a node allocation from the (software) pool.
ALLOC_COMPUTE = 20


class VersionedLinkedList:
    """The versioned list structure and its task bodies."""

    def __init__(
        self,
        machine: Machine,
        initial_keys: list[int],
        capacity: int,
        ticket_init_version: int = FIRST_TASK_ID,
    ):
        if capacity < len(initial_keys) + 1:
            raise ConfigError("capacity too small for initial population")
        self.m = machine
        heap = machine.heap
        self.capacity = capacity
        self.key_base = heap.alloc(16 * capacity, align=64)
        self.next_base = heap.alloc_versioned(capacity)
        self.head_addr = heap.alloc_versioned(1)
        self.ticket_addr = heap.alloc_versioned(1)
        machine.manager.register_root(self.ticket_addr)
        self.n_nodes = 1  # id 0 reserved as null

        # Pre-populate functionally (version 0 everywhere), sorted ascending.
        mgr = machine.manager
        prev_vaddr = self.head_addr
        for key in sorted(set(initial_keys)):
            nid = self._alloc_node_functional(key)
            mgr.store_version(0, prev_vaddr, 0, nid)
            prev_vaddr = self.next_vaddr(nid)
        mgr.store_version(0, prev_vaddr, 0, 0)
        # The ticket starts at the first mutator's entry version.
        mgr.store_version(0, self.ticket_addr, ticket_init_version, 0)

    # -- layout ----------------------------------------------------------------

    def key_addr(self, nid: int) -> int:
        return self.key_base + 16 * nid

    def next_vaddr(self, nid: int) -> int:
        return self.next_base + 4 * nid

    def _alloc_node_functional(self, key: int) -> int:
        nid = self.n_nodes
        if nid >= self.capacity:
            raise ConfigError("node pool exhausted")
        self.n_nodes += 1
        self.m.mem[self.key_addr(nid)] = key
        return nid

    # -- task bodies -------------------------------------------------------------

    def lookup_task(self, tid: int, key: int, entry: tuple) -> Generator:
        """Read-only: ordered entry (no lock), then a snapshot traversal."""
        yield from self._reader_enter(entry)
        _, cur = yield isa.load_latest(self.head_addr, tid)
        while cur:
            yield isa.compute(HOP_COMPUTE)
            k = yield isa.load(self.key_addr(cur))
            if k >= key:
                return k == key
            _, cur = yield isa.load_latest(self.next_vaddr(cur), tid)
        return False

    def _reader_enter(self, entry: tuple) -> Generator:
        """Wait for the preceding mutator's entry evidence (Section IV-D).

        Readers never lock or store at the root — they exact-load the
        ticket version the last preceding mutator creates on entry, and
        tasks with no preceding mutator skip the ticket entirely.
        """
        if entry[0] == ENTER_LOAD:
            yield isa.load_version(self.ticket_addr, entry[1])

    def insert_task(self, tid: int, key: int, rename_to: int) -> Generator:
        prev_vaddr, prev_ver, cur = yield from self._enter_and_seek(tid, key, rename_to)
        k = None
        if cur:
            k = yield isa.load(self.key_addr(cur))
        if cur and k == key:
            yield isa.unlock_version(prev_vaddr, prev_ver)
            return False
        yield isa.compute(ALLOC_COMPUTE)
        nid = self._alloc_node_functional(key)
        yield isa.store(self.key_addr(nid), key)
        yield isa.store_version(self.next_vaddr(nid), tid, cur)
        yield isa.store_version(prev_vaddr, tid, nid)  # rename: shadows old
        yield isa.unlock_version(prev_vaddr, prev_ver)
        return True

    def delete_task(self, tid: int, key: int, rename_to: int) -> Generator:
        prev_vaddr, prev_ver, cur = yield from self._enter_and_seek(tid, key, rename_to)
        k = None
        if cur:
            k = yield isa.load(self.key_addr(cur))
        if not cur or k != key:
            yield isa.unlock_version(prev_vaddr, prev_ver)
            return False
        nv, nxt = yield isa.lock_load_latest(self.next_vaddr(cur), tid)
        yield isa.store_version(prev_vaddr, tid, nxt)  # splice out
        yield isa.unlock_version(self.next_vaddr(cur), nv)
        yield isa.unlock_version(prev_vaddr, prev_ver)
        return True

    def _enter_and_seek(self, tid: int, key: int, rename_to: int) -> Generator:
        """Ordered entry + hand-over-hand walk to the insertion point.

        Returns ``(locked_vaddr, locked_version, node_at_or_after_key)``;
        the returned pointer is still locked by this task.
        """
        yield isa.lock_load_version(self.ticket_addr, tid)
        hv, cur = yield isa.lock_load_latest(self.head_addr, tid)
        yield isa.unlock_version(self.ticket_addr, tid, rename_to)
        prev_vaddr, prev_ver = self.head_addr, hv
        while cur:
            yield isa.compute(HOP_COMPUTE)
            k = yield isa.load(self.key_addr(cur))
            if k >= key:
                break
            nv, nxt = yield isa.lock_load_latest(self.next_vaddr(cur), tid)
            yield isa.unlock_version(prev_vaddr, prev_ver)
            prev_vaddr, prev_ver = self.next_vaddr(cur), nv
            cur = nxt
        return prev_vaddr, prev_ver, cur

    # -- inspection ------------------------------------------------------------------

    def snapshot(self, cap: int = 1 << 31) -> list[int]:
        """Functional walk of the latest-version chain (for validation)."""
        mgr = self.m.manager
        out = []
        lst = mgr.lists.get(self.head_addr)
        cur = lst.find_latest(cap)[0].value if lst and lst.head else 0
        while cur:
            out.append(self.m.mem[self.key_addr(cur)])
            nxt_list = mgr.lists.get(self.next_vaddr(cur))
            cur = nxt_list.find_latest(cap)[0].value if nxt_list else 0
        return out


class UnversionedLinkedList:
    """Conventional-pointer list: node ``i`` has key at +0, next at +8."""

    def __init__(self, machine: Machine, initial_keys: list[int], capacity: int):
        self.m = machine
        self.capacity = capacity
        self.base = machine.heap.alloc(16 * capacity, align=64)
        self.head_addr = machine.heap.alloc(8, align=8)
        self.n_nodes = 1
        mem = machine.mem
        prev_addr = self.head_addr
        for key in sorted(set(initial_keys)):
            nid = self.n_nodes
            self.n_nodes += 1
            mem[self.key_addr(nid)] = key
            mem[prev_addr] = nid
            prev_addr = self.next_addr(nid)
        mem[prev_addr] = 0

    def key_addr(self, nid: int) -> int:
        return self.base + 16 * nid

    def next_addr(self, nid: int) -> int:
        return self.base + 16 * nid + 8

    def program(self, ops: list[tuple[str, int, int]]) -> Generator:
        """One sequential program applying every operation."""
        results = []
        for op, key, _ in ops:
            prev_addr = self.head_addr
            cur = yield isa.load(prev_addr)
            k = None
            while cur:
                yield isa.compute(HOP_COMPUTE)
                k = yield isa.load(self.key_addr(cur))
                if k >= key:
                    break
                prev_addr = self.next_addr(cur)
                cur = yield isa.load(prev_addr)
            found = bool(cur) and k == key
            if op == LOOKUP:
                results.append(found)
            elif op == INSERT:
                if found:
                    results.append(False)
                else:
                    yield isa.compute(ALLOC_COMPUTE)
                    nid = self.n_nodes
                    self.n_nodes += 1
                    yield isa.store(self.key_addr(nid), key)
                    yield isa.store(self.next_addr(nid), cur)
                    yield isa.store(prev_addr, nid)
                    results.append(True)
            elif op == DELETE:
                if not found:
                    results.append(False)
                else:
                    nxt = yield isa.load(self.next_addr(cur))
                    yield isa.store(prev_addr, nxt)
                    results.append(True)
            else:
                raise ConfigError(f"linked list does not support {op!r}")
        return results

    def snapshot(self) -> list[int]:
        out = []
        cur = self.m.mem.get(self.head_addr, 0)
        while cur:
            out.append(self.m.mem[self.key_addr(cur)])
            cur = self.m.mem.get(self.next_addr(cur), 0)
        return out


# -- variant runners ------------------------------------------------------------------


def _capacity(initial: list[int], ops: list[tuple[str, int, int]]) -> int:
    return len(initial) + sum(1 for o in ops if o[0] == INSERT) + 2


def run_unversioned(
    config: MachineConfig, initial: list[int], ops: list[tuple[str, int, int]]
) -> WorkloadRun:
    """Sequential conventional-memory run (the Figure 6 baseline)."""

    def setup(machine):
        return UnversionedLinkedList(machine, initial, _capacity(initial, ops))

    def make_tasks(machine, lst):
        def body(tid):
            return (yield from lst.program(ops))

        return [Task(0, body, label="linkedlist-seq")]

    def finalize(machine, lst):
        return lst.snapshot()

    cfg = config.with_cores(1)
    run = run_variant("linked_list", "unversioned", cfg, setup, make_tasks, finalize)
    run.results = run.results[0]
    return run


def run_versioned(
    config: MachineConfig,
    initial: list[int],
    ops: list[tuple[str, int, int]],
    num_cores: int,
) -> WorkloadRun:
    """Task-per-operation versioned run on ``num_cores`` cores."""

    init_version, plans = plan_entries(ops)

    def setup(machine):
        return VersionedLinkedList(
            machine, initial, _capacity(initial, ops),
            ticket_init_version=init_version,
        )

    def make_tasks(machine, lst):
        tasks = []
        for i, (op, key, _) in enumerate(ops):
            tid = FIRST_TASK_ID + i
            plan = plans[i]
            if op == LOOKUP:
                tasks.append(Task(tid, lst.lookup_task, key, plan, label="ll-lookup"))
            elif op == INSERT:
                tasks.append(Task(tid, lst.insert_task, key, plan[2], label="ll-insert"))
            else:
                tasks.append(Task(tid, lst.delete_task, key, plan[2], label="ll-delete"))
        return tasks

    def finalize(machine, lst):
        return lst.snapshot()

    cfg = config.with_cores(num_cores)
    variant = "versioned-seq" if num_cores == 1 else f"versioned-{num_cores}c"
    return run_variant("linked_list", variant, cfg, setup, make_tasks, finalize)
