"""Chained hash table (Section IV-D).

The table root orders every operation — the paper observes this is the
bottleneck for write-intensive hash tables ("up to 85% of versioned root
loads are stalled") precisely because chains are short and diverge fast,
so entry ordering dominates.  Readers pass the baton without locking,
which is why read-heavy mixes stall far less.

Layout: ``buckets`` O-structure words at ``bucket_base + 4*b`` hold chain
heads; chain nodes use the linked-list pool layout (key conventional,
next pointer versioned).  Chains are kept sorted by key.
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
from .linked_list import ALLOC_COMPUTE
from .opgen import DELETE, INSERT, LOOKUP

#: Cycles charged for computing the hash of a key.
HASH_COMPUTE = 8


class VersionedHashTable:
    def __init__(
        self,
        machine: Machine,
        initial_keys: list[int],
        capacity: int,
        num_buckets: int,
        ticket_init_version: int = FIRST_TASK_ID,
    ):
        if num_buckets <= 0:
            raise ConfigError("need at least one bucket")
        self.m = machine
        heap = machine.heap
        self.capacity = capacity
        self.num_buckets = num_buckets
        self.key_base = heap.alloc(16 * capacity, align=64)
        self.next_base = heap.alloc_versioned(capacity)
        self.bucket_base = heap.alloc_versioned(num_buckets)
        self.ticket_addr = heap.alloc_versioned(1)
        machine.manager.register_root(self.ticket_addr)
        self.n_nodes = 1

        mgr = machine.manager
        chains: dict[int, list[int]] = {}
        for key in sorted(set(initial_keys)):
            chains.setdefault(key % num_buckets, []).append(key)
        for b in range(num_buckets):
            prev_vaddr = self.bucket_vaddr(b)
            for key in chains.get(b, ()):  # ascending within each chain
                nid = self._alloc_node_functional(key)
                mgr.store_version(0, prev_vaddr, 0, nid)
                prev_vaddr = self.next_vaddr(nid)
            mgr.store_version(0, prev_vaddr, 0, 0)
        mgr.store_version(0, self.ticket_addr, ticket_init_version, 0)

    # -- layout ----------------------------------------------------------------

    def key_addr(self, nid: int) -> int:
        return self.key_base + 16 * nid

    def next_vaddr(self, nid: int) -> int:
        return self.next_base + 4 * nid

    def bucket_vaddr(self, b: int) -> int:
        return self.bucket_base + 4 * b

    def _alloc_node_functional(self, key: int) -> int:
        nid = self.n_nodes
        if nid >= self.capacity:
            raise ConfigError("node pool exhausted")
        self.n_nodes += 1
        self.m.mem[self.key_addr(nid)] = key
        return nid

    # -- task bodies ----------------------------------------------------------------

    def lookup_task(self, tid: int, key: int, entry: tuple) -> Generator:
        if entry[0] == ENTER_LOAD:
            yield isa.load_version(self.ticket_addr, entry[1])
        yield isa.compute(HASH_COMPUTE)
        _, cur = yield isa.load_latest(self.bucket_vaddr(key % self.num_buckets), tid)
        while cur:
            yield isa.compute(HOP_COMPUTE)
            k = yield isa.load(self.key_addr(cur))
            if k >= key:
                return k == key
            _, cur = yield isa.load_latest(self.next_vaddr(cur), tid)
        return False

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
        yield isa.store_version(prev_vaddr, tid, nid)
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
        yield isa.store_version(prev_vaddr, tid, nxt)
        yield isa.unlock_version(self.next_vaddr(cur), nv)
        yield isa.unlock_version(prev_vaddr, prev_ver)
        return True

    def _enter_and_seek(self, tid: int, key: int, rename_to: int) -> Generator:
        yield isa.lock_load_version(self.ticket_addr, tid)
        yield isa.compute(HASH_COMPUTE)
        bucket = self.bucket_vaddr(key % self.num_buckets)
        hv, cur = yield isa.lock_load_latest(bucket, tid)
        yield isa.unlock_version(self.ticket_addr, tid, rename_to)
        prev_vaddr, prev_ver = bucket, hv
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

    # -- inspection -------------------------------------------------------------

    def snapshot(self, cap: int = 1 << 31) -> list[int]:
        mgr = self.m.manager
        out: list[int] = []

        def latest(vaddr: int) -> int:
            lst = mgr.lists.get(vaddr)
            if lst is None or lst.head is None:
                return 0
            block, _ = lst.find_latest(cap)
            return block.value if block else 0

        for b in range(self.num_buckets):
            cur = latest(self.bucket_vaddr(b))
            while cur:
                out.append(self.m.mem[self.key_addr(cur)])
                cur = latest(self.next_vaddr(cur))
        return sorted(out)


class UnversionedHashTable:
    """Conventional chained table: node key at +0, next at +8."""

    def __init__(
        self,
        machine: Machine,
        initial_keys: list[int],
        capacity: int,
        num_buckets: int,
    ):
        self.m = machine
        self.capacity = capacity
        self.num_buckets = num_buckets
        self.base = machine.heap.alloc(16 * capacity, align=64)
        self.bucket_base = machine.heap.alloc(8 * num_buckets, align=64)
        self.n_nodes = 1
        mem = machine.mem
        chains: dict[int, list[int]] = {}
        for key in sorted(set(initial_keys)):
            chains.setdefault(key % num_buckets, []).append(key)
        for b in range(num_buckets):
            prev = self.bucket_addr(b)
            for key in chains.get(b, ()):
                nid = self.n_nodes
                self.n_nodes += 1
                mem[self.key_addr(nid)] = key
                mem[prev] = nid
                prev = self.next_addr(nid)
            mem[prev] = 0

    def key_addr(self, nid: int) -> int:
        return self.base + 16 * nid

    def next_addr(self, nid: int) -> int:
        return self.base + 16 * nid + 8

    def bucket_addr(self, b: int) -> int:
        return self.bucket_base + 8 * b

    def program(self, ops: list[tuple[str, int, int]]) -> Generator:
        results = []
        for op, key, _ in ops:
            yield isa.compute(HASH_COMPUTE)
            prev_addr = self.bucket_addr(key % self.num_buckets)
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
                raise ConfigError(f"hash table does not support {op!r}")
        return results

    def snapshot(self) -> list[int]:
        mem = self.m.mem
        out = []
        for b in range(self.num_buckets):
            cur = mem.get(self.bucket_addr(b), 0)
            while cur:
                out.append(mem[self.key_addr(cur)])
                cur = mem.get(self.next_addr(cur), 0)
        return sorted(out)


# -- variant runners ------------------------------------------------------------------


def _capacity(initial: list[int], ops: list[tuple[str, int, int]]) -> int:
    return len(initial) + sum(1 for o in ops if o[0] == INSERT) + 2


def _buckets_for(initial: list[int]) -> int:
    """Target load factor ~4 (chains a few nodes long, like the paper's)."""
    return max(4, len(initial) // 4)


def run_unversioned(
    config: MachineConfig, initial: list[int], ops: list[tuple[str, int, int]]
) -> WorkloadRun:
    def setup(machine):
        return UnversionedHashTable(
            machine, initial, _capacity(initial, ops), _buckets_for(initial)
        )

    def make_tasks(machine, table):
        def body(tid):
            return (yield from table.program(ops))

        return [Task(0, body, label="hash-seq")]

    cfg = config.with_cores(1)
    run = run_variant(
        "hash_table", "unversioned", cfg, setup, make_tasks, lambda m, t: t.snapshot()
    )
    run.results = run.results[0]
    return run


def run_versioned(
    config: MachineConfig,
    initial: list[int],
    ops: list[tuple[str, int, int]],
    num_cores: int,
) -> WorkloadRun:
    init_version, plans = plan_entries(ops)

    def setup(machine):
        return VersionedHashTable(
            machine, initial, _capacity(initial, ops), _buckets_for(initial),
            ticket_init_version=init_version,
        )

    def make_tasks(machine, table):
        tasks = []
        for i, (op, key, _) in enumerate(ops):
            tid = FIRST_TASK_ID + i
            plan = plans[i]
            if op == LOOKUP:
                tasks.append(Task(tid, table.lookup_task, key, plan, label="hash-lookup"))
            elif op == INSERT:
                tasks.append(Task(tid, table.insert_task, key, plan[2], label="hash-insert"))
            else:
                tasks.append(Task(tid, table.delete_task, key, plan[2], label="hash-delete"))
        return tasks

    cfg = config.with_cores(num_cores)
    variant = "versioned-seq" if num_cores == 1 else f"versioned-{num_cores}c"
    return run_variant(
        "hash_table", variant, cfg, setup, make_tasks, lambda m, t: t.snapshot()
    )
