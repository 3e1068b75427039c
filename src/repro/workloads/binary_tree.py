"""Unbalanced binary search tree (Sections IV-C and IV-D).

The versioned tree supports concurrent mutators and snapshot readers:

- mutators enter in task order through the ticket, then descend with
  hand-over-hand LOCK-LOAD-LATEST, renaming the parent pointer with
  STORE-VERSION at the mutation point;
- readers (lookups and the range scans of Figure 8) pass the entry baton
  without locking and traverse a consistent snapshot via LOAD-LATEST —
  renaming gives them snapshot isolation: a concurrent delete replaces
  nodes rather than mutating them, so an in-flight scan keeps seeing the
  version of the tree that existed when it entered.

Deletion of a node with two children builds a *replacement node* carrying
the successor's key (instead of overwriting the key in place, which would
tear concurrent snapshots): the successor is spliced out of the right
subtree under locks, and the parent pointer is renamed to the replacement.

Node pool layout: key at ``key_base + 16*i`` (conventional); left and
right child pointers at ``child_base + 8*i`` and ``child_base + 8*i + 4``
(O-structure words).  Node id 0 is null.
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
from .opgen import DELETE, INSERT, LOOKUP, SCAN


class VersionedBinaryTree:
    """Versioned BST structure and task bodies."""

    def __init__(
        self,
        machine: Machine,
        initial_keys: list[int],
        capacity: int,
        ticket_init_version: int = FIRST_TASK_ID,
    ):
        if capacity < 2 * len(initial_keys) + 1:
            raise ConfigError("capacity too small (deletes allocate replacements)")
        self.m = machine
        heap = machine.heap
        self.capacity = capacity
        self.key_base = heap.alloc(16 * capacity, align=64)
        self.child_base = heap.alloc_versioned(2 * capacity)
        self.root_addr = heap.alloc_versioned(1)
        self.ticket_addr = heap.alloc_versioned(1)
        machine.manager.register_root(self.ticket_addr)
        self.n_nodes = 1

        mgr = machine.manager
        # Pre-populate with a balanced shape (sorted keys, recursive median)
        # so initial depth is log2(n), as a warmed-up tree would be.
        keys = sorted(set(initial_keys))

        def build(lo: int, hi: int) -> int:
            if lo >= hi:
                return 0
            mid = (lo + hi) // 2
            nid = self._alloc_node_functional(keys[mid])
            mgr.store_version(0, self.left_vaddr(nid), 0, build(lo, mid))
            mgr.store_version(0, self.right_vaddr(nid), 0, build(mid + 1, hi))
            return nid

        mgr.store_version(0, self.root_addr, 0, build(0, len(keys)))
        mgr.store_version(0, self.ticket_addr, ticket_init_version, 0)

    # -- layout -------------------------------------------------------------

    def key_addr(self, nid: int) -> int:
        return self.key_base + 16 * nid

    def left_vaddr(self, nid: int) -> int:
        return self.child_base + 8 * nid

    def right_vaddr(self, nid: int) -> int:
        return self.child_base + 8 * nid + 4

    def _child_vaddr(self, nid: int, go_right: bool) -> int:
        return self.right_vaddr(nid) if go_right else self.left_vaddr(nid)

    def _alloc_node_functional(self, key: int) -> int:
        nid = self.n_nodes
        if nid >= self.capacity:
            raise ConfigError("node pool exhausted")
        self.n_nodes += 1
        self.m.mem[self.key_addr(nid)] = key
        return nid

    def _new_node(self, tid: int, key: int, left: int = 0, right: int = 0) -> Generator:
        """Simulated allocation + field initialisation of a fresh node.

        Children are written once with version ``tid`` (a version is
        immutable once created, so callers pass the final values).
        """
        yield isa.compute(ALLOC_COMPUTE)
        nid = self._alloc_node_functional(key)
        yield isa.store(self.key_addr(nid), key)
        yield isa.store_version(self.left_vaddr(nid), tid, left)
        yield isa.store_version(self.right_vaddr(nid), tid, right)
        return nid

    # -- read-only tasks ------------------------------------------------------

    def _reader_enter(self, entry: tuple) -> Generator:
        """Readers wait for the preceding mutator's entry evidence only."""
        if entry[0] == ENTER_LOAD:
            yield isa.load_version(self.ticket_addr, entry[1])

    def lookup_task(self, tid: int, key: int, entry: tuple) -> Generator:
        yield from self._reader_enter(entry)
        _, cur = yield isa.load_latest(self.root_addr, tid)
        while cur:
            yield isa.compute(HOP_COMPUTE)
            k = yield isa.load(self.key_addr(cur))
            if k == key:
                return True
            _, cur = yield isa.load_latest(self._child_vaddr(cur, key > k), tid)
        return False

    def scan_task(self, tid: int, key: int, count: int, entry: tuple) -> Generator:
        """Collect the first ``count`` keys >= ``key``, in order (Figure 8).

        An explicit-stack in-order traversal pruned below ``key``; every
        pointer read is a snapshot LOAD-LATEST capped at this task's id,
        so the result is serializable against concurrent inserts.
        """
        yield from self._reader_enter(entry)
        out: list[int] = []
        stack: list[int] = []
        _, cur = yield isa.load_latest(self.root_addr, tid)
        while (cur or stack) and len(out) < count:
            while cur:
                yield isa.compute(HOP_COMPUTE)
                k = yield isa.load(self.key_addr(cur))
                if k >= key:
                    stack.append(cur)
                    _, cur = yield isa.load_latest(self.left_vaddr(cur), tid)
                else:
                    _, cur = yield isa.load_latest(self.right_vaddr(cur), tid)
            if not stack:
                break
            node = stack.pop()
            k = yield isa.load(self.key_addr(node))
            out.append(k)
            _, cur = yield isa.load_latest(self.right_vaddr(node), tid)
        return out

    # -- mutating tasks -----------------------------------------------------------

    def insert_task(self, tid: int, key: int, rename_to: int) -> Generator:
        yield isa.lock_load_version(self.ticket_addr, tid)
        rv, cur = yield isa.lock_load_latest(self.root_addr, tid)
        yield isa.unlock_version(self.ticket_addr, tid, rename_to)
        prev_vaddr, prev_ver = self.root_addr, rv
        while cur:
            yield isa.compute(HOP_COMPUTE)
            k = yield isa.load(self.key_addr(cur))
            if k == key:
                yield isa.unlock_version(prev_vaddr, prev_ver)
                return False
            child_vaddr = self._child_vaddr(cur, key > k)
            cv, child = yield isa.lock_load_latest(child_vaddr, tid)
            yield isa.unlock_version(prev_vaddr, prev_ver)
            prev_vaddr, prev_ver = child_vaddr, cv
            cur = child
        nid = yield from self._new_node(tid, key)
        yield isa.store_version(prev_vaddr, tid, nid)
        yield isa.unlock_version(prev_vaddr, prev_ver)
        return True

    def delete_task(self, tid: int, key: int, rename_to: int) -> Generator:
        yield isa.lock_load_version(self.ticket_addr, tid)
        rv, cur = yield isa.lock_load_latest(self.root_addr, tid)
        yield isa.unlock_version(self.ticket_addr, tid, rename_to)
        prev_vaddr, prev_ver = self.root_addr, rv
        k = None
        while cur:
            yield isa.compute(HOP_COMPUTE)
            k = yield isa.load(self.key_addr(cur))
            if k == key:
                break
            child_vaddr = self._child_vaddr(cur, key > k)
            cv, child = yield isa.lock_load_latest(child_vaddr, tid)
            yield isa.unlock_version(prev_vaddr, prev_ver)
            prev_vaddr, prev_ver = child_vaddr, cv
            cur = child
        if not cur:
            yield isa.unlock_version(prev_vaddr, prev_ver)
            return False

        # Children reads: LOAD-LATEST blocks if an earlier mutator still
        # holds a lock there, which is exactly the ordering we need; later
        # mutators cannot pass our lock on the parent pointer.
        _, lchild = yield isa.load_latest(self.left_vaddr(cur), tid)
        _, rchild = yield isa.load_latest(self.right_vaddr(cur), tid)
        if lchild == 0 or rchild == 0:
            yield isa.store_version(prev_vaddr, tid, lchild or rchild)
            yield isa.unlock_version(prev_vaddr, prev_ver)
            return True

        # Two children: walk to the successor (leftmost of right subtree)
        # hand-over-hand, splice it out, and rename the parent pointer to a
        # fresh replacement node carrying the successor's key.
        sp_vaddr = self.right_vaddr(cur)
        sp_ver, succ = yield isa.lock_load_latest(sp_vaddr, tid)
        while True:
            child_vaddr = self.left_vaddr(succ)
            cv, child = yield isa.lock_load_latest(child_vaddr, tid)
            if child == 0:
                yield isa.unlock_version(child_vaddr, cv)
                break
            yield isa.unlock_version(sp_vaddr, sp_ver)
            sp_vaddr, sp_ver = child_vaddr, cv
            succ = child
        _, succ_right = yield isa.load_latest(self.right_vaddr(succ), tid)
        skey = yield isa.load(self.key_addr(succ))
        if sp_vaddr == self.right_vaddr(cur):
            # The successor is cur's right child: the replacement adopts
            # the successor's own right subtree; nothing to splice (the
            # pointer to the successor dies with cur).
            nid = yield from self._new_node(tid, skey, left=lchild, right=succ_right)
        else:
            # Splice the successor out of the right subtree, then build
            # the replacement around the (now successor-free) rchild.
            yield isa.store_version(sp_vaddr, tid, succ_right)
            nid = yield from self._new_node(tid, skey, left=lchild, right=rchild)
        yield isa.store_version(prev_vaddr, tid, nid)
        yield isa.unlock_version(sp_vaddr, sp_ver)
        yield isa.unlock_version(prev_vaddr, prev_ver)
        return True

    # -- inspection ---------------------------------------------------------------

    def snapshot(self, cap: int = 1 << 31) -> list[int]:
        """Sorted key list of the latest-version tree (for validation)."""
        mgr = self.m.manager

        def latest(vaddr: int) -> int:
            lst = mgr.lists.get(vaddr)
            if lst is None or lst.head is None:
                return 0
            block, _ = lst.find_latest(cap)
            return block.value if block else 0

        out: list[int] = []

        def walk(nid: int) -> None:
            if not nid:
                return
            walk(latest(self.left_vaddr(nid)))
            out.append(self.m.mem[self.key_addr(nid)])
            walk(latest(self.right_vaddr(nid)))

        walk(latest(self.root_addr))
        return out


class UnversionedBinaryTree:
    """Conventional BST: node ``i`` has key at +0, left at +8, right at +12.

    The sequential program may delete in place (copying the successor key
    into the node) because nothing runs concurrently.
    """

    def __init__(self, machine: Machine, initial_keys: list[int], capacity: int):
        self.m = machine
        self.capacity = capacity
        self.base = machine.heap.alloc(16 * capacity, align=64)
        self.root_addr = machine.heap.alloc(8, align=8)
        self.n_nodes = 1
        mem = machine.mem
        keys = sorted(set(initial_keys))

        def build(lo: int, hi: int) -> int:
            if lo >= hi:
                return 0
            mid = (lo + hi) // 2
            nid = self.n_nodes
            self.n_nodes += 1
            mem[self.key_addr(nid)] = keys[mid]
            mem[self.left_addr(nid)] = build(lo, mid)
            mem[self.right_addr(nid)] = build(mid + 1, hi)
            return nid

        mem[self.root_addr] = build(0, len(keys))

    def key_addr(self, nid: int) -> int:
        return self.base + 16 * nid

    def left_addr(self, nid: int) -> int:
        return self.base + 16 * nid + 8

    def right_addr(self, nid: int) -> int:
        return self.base + 16 * nid + 12

    def _child_addr(self, nid: int, go_right: bool) -> int:
        return self.right_addr(nid) if go_right else self.left_addr(nid)

    # -- individual operations (reused by the rwlock baseline) ---------------

    def lookup_op(self, key: int) -> Generator:
        cur = yield isa.load(self.root_addr)
        while cur:
            yield isa.compute(HOP_COMPUTE)
            k = yield isa.load(self.key_addr(cur))
            if k == key:
                return True
            cur = yield isa.load(self._child_addr(cur, key > k))
        return False

    def scan_op(self, key: int, count: int) -> Generator:
        out: list[int] = []
        stack: list[int] = []
        cur = yield isa.load(self.root_addr)
        while (cur or stack) and len(out) < count:
            while cur:
                yield isa.compute(HOP_COMPUTE)
                k = yield isa.load(self.key_addr(cur))
                if k >= key:
                    stack.append(cur)
                    cur = yield isa.load(self.left_addr(cur))
                else:
                    cur = yield isa.load(self.right_addr(cur))
            if not stack:
                break
            node = stack.pop()
            k = yield isa.load(self.key_addr(node))
            out.append(k)
            cur = yield isa.load(self.right_addr(node))
        return out

    def insert_op(self, key: int) -> Generator:
        prev_addr = self.root_addr
        cur = yield isa.load(prev_addr)
        while cur:
            yield isa.compute(HOP_COMPUTE)
            k = yield isa.load(self.key_addr(cur))
            if k == key:
                return False
            prev_addr = self._child_addr(cur, key > k)
            cur = yield isa.load(prev_addr)
        yield isa.compute(ALLOC_COMPUTE)
        nid = self.n_nodes
        if nid >= self.capacity:
            raise ConfigError("node pool exhausted")
        self.n_nodes += 1
        yield isa.store(self.key_addr(nid), key)
        yield isa.store(self.left_addr(nid), 0)
        yield isa.store(self.right_addr(nid), 0)
        yield isa.store(prev_addr, nid)
        return True

    def delete_op(self, key: int) -> Generator:
        prev_addr = self.root_addr
        cur = yield isa.load(prev_addr)
        k = None
        while cur:
            yield isa.compute(HOP_COMPUTE)
            k = yield isa.load(self.key_addr(cur))
            if k == key:
                break
            prev_addr = self._child_addr(cur, key > k)
            cur = yield isa.load(prev_addr)
        if not cur:
            return False
        lchild = yield isa.load(self.left_addr(cur))
        rchild = yield isa.load(self.right_addr(cur))
        if lchild == 0 or rchild == 0:
            yield isa.store(prev_addr, lchild or rchild)
            return True
        # Two children: in-place successor copy (fine when exclusive).
        sp_addr = self.right_addr(cur)
        succ = rchild
        while True:
            child = yield isa.load(self.left_addr(succ))
            yield isa.compute(HOP_COMPUTE)
            if child == 0:
                break
            sp_addr = self.left_addr(succ)
            succ = child
        skey = yield isa.load(self.key_addr(succ))
        succ_right = yield isa.load(self.right_addr(succ))
        yield isa.store(self.key_addr(cur), skey)
        yield isa.store(sp_addr, succ_right)
        return True

    def program(self, ops: list[tuple[str, int, int]]) -> Generator:
        results = []
        for op, key, extra in ops:
            if op == LOOKUP:
                results.append((yield from self.lookup_op(key)))
            elif op == SCAN:
                results.append((yield from self.scan_op(key, extra)))
            elif op == INSERT:
                results.append((yield from self.insert_op(key)))
            elif op == DELETE:
                results.append((yield from self.delete_op(key)))
            else:
                raise ConfigError(f"binary tree does not support {op!r}")
        return results

    def snapshot(self) -> list[int]:
        mem = self.m.mem
        out: list[int] = []

        def walk(nid: int) -> None:
            if not nid:
                return
            walk(mem.get(self.left_addr(nid), 0))
            out.append(mem[self.key_addr(nid)])
            walk(mem.get(self.right_addr(nid), 0))

        walk(mem.get(self.root_addr, 0))
        return out


# -- variant runners ------------------------------------------------------------------


def _capacity(initial: list[int], ops: list[tuple[str, int, int]]) -> int:
    # Deletes of two-children nodes allocate replacement nodes too.
    writes = sum(1 for o in ops if o[0] in (INSERT, DELETE))
    return 2 * (len(initial) + writes) + 4


def run_unversioned(
    config: MachineConfig, initial: list[int], ops: list[tuple[str, int, int]]
) -> WorkloadRun:
    def setup(machine):
        return UnversionedBinaryTree(machine, initial, _capacity(initial, ops))

    def make_tasks(machine, tree):
        def body(tid):
            return (yield from tree.program(ops))

        return [Task(0, body, label="bst-seq")]

    cfg = config.with_cores(1)
    run = run_variant(
        "binary_tree", "unversioned", cfg, setup, make_tasks,
        lambda m, t: t.snapshot(),
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
        return VersionedBinaryTree(
            machine, initial, _capacity(initial, ops),
            ticket_init_version=init_version,
        )

    def make_tasks(machine, tree):
        tasks = []
        for i, (op, key, extra) in enumerate(ops):
            tid = FIRST_TASK_ID + i
            plan = plans[i]
            if op == LOOKUP:
                tasks.append(Task(tid, tree.lookup_task, key, plan, label="bst-lookup"))
            elif op == SCAN:
                tasks.append(Task(tid, tree.scan_task, key, extra, plan, label="bst-scan"))
            elif op == INSERT:
                tasks.append(Task(tid, tree.insert_task, key, plan[2], label="bst-insert"))
            elif op == DELETE:
                tasks.append(Task(tid, tree.delete_task, key, plan[2], label="bst-delete"))
            else:
                raise ConfigError(f"binary tree does not support {op!r}")
        return tasks

    cfg = config.with_cores(num_cores)
    variant = "versioned-seq" if num_cores == 1 else f"versioned-{num_cores}c"
    return run_variant(
        "binary_tree", variant, cfg, setup, make_tasks, lambda m, t: t.snapshot()
    )
