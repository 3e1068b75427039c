"""Red-black tree (Section IV-D's hardest case).

The paper: "The red-black tree benchmark is an attempt to handle balanced
data structures, which are harder to parallelize due to the rebalancing
procedure.  Our implementation allows a single writer, and readers might
see a slightly unbalanced tree.  This severely limits parallelism,
forcing the root to heavily throttle traversals."

Reproduced design:

- **Single writer**: a mutating task holds the entry ticket for its whole
  operation and renames it (``UNLOCK-VERSION(ticket, t, t+1)``) only after
  committing, so writers fully serialize and no reader admitted after
  writer ``t`` can start until ``t`` is done — the root-throttling the
  paper measures.
- **Write overlay**: rebalancing may touch the same pointer twice (e.g.
  two rotations around one node), but a version is immutable once created.
  The writer therefore buffers pointer writes in an overlay and commits
  each touched pointer once, as version ``t``, at the end.  Readers never
  see partial rebalances: concurrent readers (admitted before ``t``) read
  versions ``< t``, and later readers wait at the ticket.
- **Writer-private metadata**: node colors and parent pointers are only
  ever used by the (single) writer, so they live in writer-private state
  charged as ALU work, not versioned memory.  Keys are immutable — CLRS
  deletion *transplants* nodes instead of copying keys, which is what
  keeps concurrent snapshots consistent.
- Readers are identical to the binary-tree readers: baton at the ticket,
  snapshot LOAD-LATEST traversal.

The CLRS insert/delete/fixup logic is written once against a memory
adapter; the unversioned sequential variant reuses it with conventional
loads and stores.
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

RED = True
BLACK = False

#: ALU cycles for a writer-private color/parent update.
META_COMPUTE = 2


class _RBEngine:
    """CLRS red-black algorithms over an abstract pointer memory.

    Subclasses provide ``_read(field)``, ``_write(field, value)`` and
    ``_alloc(key)`` as generators; fields are ``(nid, 'l'|'r')`` pairs or
    the string ``'root'``.  Colors and parents are Python-side state.
    """

    def __init__(self) -> None:
        self.color: dict[int, bool] = {0: BLACK}
        self.parent: dict[int, int] = {0: 0}

    # -- memory interface (overridden) ------------------------------------

    def _read(self, field) -> Generator:
        raise NotImplementedError

    def _write(self, field, value: int) -> Generator:
        raise NotImplementedError

    def _alloc(self, key: int) -> Generator:
        raise NotImplementedError

    def _key(self, nid: int) -> Generator:
        raise NotImplementedError

    # -- helpers --------------------------------------------------------------

    def _child_field(self, nid: int, go_right: bool):
        return (nid, "r" if go_right else "l")

    def _replace_child(self, parent: int, old: int, new: int) -> Generator:
        if parent == 0:
            yield from self._write("root", new)
        else:
            left = yield from self._read((parent, "l"))
            yield from self._write((parent, "l" if left == old else "r"), new)

    def _rotate(self, x: int, to_left: bool) -> Generator:
        """Rotate around ``x``; ``to_left`` picks the direction."""
        a, b = ("r", "l") if to_left else ("l", "r")
        y = yield from self._read((x, a))
        beta = yield from self._read((y, b))
        yield from self._write((x, a), beta)
        yield isa.compute(META_COMPUTE)
        if beta:
            self.parent[beta] = x
        yield from self._replace_child(self.parent[x], x, y)
        self.parent[y] = self.parent[x]
        yield from self._write((y, b), x)
        self.parent[x] = y

    # -- insert ------------------------------------------------------------------

    def insert(self, key: int) -> Generator:
        """Returns True if inserted, False if the key already existed."""
        parent = 0
        cur = yield from self._read("root")
        go_right = False
        while cur:
            yield isa.compute(HOP_COMPUTE)
            k = yield from self._key(cur)
            if k == key:
                return False
            parent = cur
            go_right = key > k
            cur = yield from self._read(self._child_field(cur, go_right))
        z = yield from self._alloc(key)
        self.color[z] = RED
        self.parent[z] = parent
        if parent == 0:
            yield from self._write("root", z)
        else:
            yield from self._write(self._child_field(parent, go_right), z)
        yield from self._insert_fixup(z)
        return True

    def _insert_fixup(self, z: int) -> Generator:
        while self.color[self.parent[z]] is RED:
            yield isa.compute(META_COMPUTE)
            p = self.parent[z]
            g = self.parent[p]
            p_is_left = (yield from self._read((g, "l"))) == p
            uncle = yield from self._read((g, "r" if p_is_left else "l"))
            if self.color[uncle] is RED:
                self.color[p] = BLACK
                self.color[uncle] = BLACK
                self.color[g] = RED
                z = g
            else:
                z_is_inner = ((yield from self._read((p, "r" if p_is_left else "l"))) == z)
                if z_is_inner:
                    z = p
                    yield from self._rotate(z, to_left=p_is_left)
                    p = self.parent[z]
                    g = self.parent[p]
                self.color[p] = BLACK
                self.color[g] = RED
                yield from self._rotate(g, to_left=not p_is_left)
        root = yield from self._read("root")
        self.color[root] = BLACK

    # -- delete -------------------------------------------------------------------

    def delete(self, key: int) -> Generator:
        """Returns True if the key was found and removed."""
        z = yield from self._read("root")
        while z:
            yield isa.compute(HOP_COMPUTE)
            k = yield from self._key(z)
            if k == key:
                break
            z = yield from self._read(self._child_field(z, key > k))
        if not z:
            return False

        y = z
        y_was_black = self.color[y] is BLACK
        zl = yield from self._read((z, "l"))
        zr = yield from self._read((z, "r"))
        if zl == 0:
            x = zr
            yield from self._transplant(z, zr)
        elif zr == 0:
            x = zl
            yield from self._transplant(z, zl)
        else:
            # Successor: minimum of the right subtree.
            y = zr
            while True:
                nxt = yield from self._read((y, "l"))
                yield isa.compute(HOP_COMPUTE)
                if nxt == 0:
                    break
                y = nxt
            y_was_black = self.color[y] is BLACK
            x = yield from self._read((y, "r"))
            if self.parent[y] == z:
                self.parent[x] = y
            else:
                yield from self._transplant(y, x)
                yield from self._write((y, "r"), zr)
                self.parent[zr] = y
            yield from self._transplant(z, y)
            yield from self._write((y, "l"), zl)
            self.parent[zl] = y
            self.color[y] = self.color[z]
        if y_was_black:
            yield from self._delete_fixup(x)
        return True

    def _transplant(self, u: int, v: int) -> Generator:
        yield from self._replace_child(self.parent[u], u, v)
        self.parent[v] = self.parent[u]

    def _delete_fixup(self, x: int) -> Generator:
        root = yield from self._read("root")
        while x != root and self.color[x] is BLACK:
            yield isa.compute(META_COMPUTE)
            p = self.parent[x]
            x_is_left = (yield from self._read((p, "l"))) == x
            a = "r" if x_is_left else "l"  # sibling side
            w = yield from self._read((p, a))
            if self.color[w] is RED:
                self.color[w] = BLACK
                self.color[p] = RED
                yield from self._rotate(p, to_left=x_is_left)
                w = yield from self._read((p, a))
            w_near = yield from self._read((w, "l" if x_is_left else "r"))
            w_far = yield from self._read((w, a))
            if self.color[w_near] is BLACK and self.color[w_far] is BLACK:
                self.color[w] = RED
                x = p
            else:
                if self.color[w_far] is BLACK:
                    self.color[w_near] = BLACK
                    self.color[w] = RED
                    yield from self._rotate(w, to_left=not x_is_left)
                    w = yield from self._read((p, a))
                    w_far = yield from self._read((w, a))
                self.color[w] = self.color[p]
                self.color[p] = BLACK
                self.color[w_far] = BLACK
                yield from self._rotate(p, to_left=x_is_left)
                x = yield from self._read("root")
                root = x
        self.color[x] = BLACK

    # -- invariant checking (tests) --------------------------------------------

    def check_rb_invariants(self, root: int, left_of, right_of) -> int:
        """Verify red-black properties; returns the black height."""

        def walk(nid: int) -> int:
            if nid == 0:
                return 1
            l, r = left_of(nid), right_of(nid)
            if self.color[nid] is RED:
                if self.color.get(l, BLACK) is RED or self.color.get(r, BLACK) is RED:
                    raise AssertionError(f"red node {nid} has a red child")
            lh = walk(l)
            rh = walk(r)
            if lh != rh:
                raise AssertionError(f"black-height mismatch at {nid}")
            return lh + (1 if self.color[nid] is BLACK else 0)

        if root and self.color[root] is not BLACK:
            raise AssertionError("root is not black")
        return walk(root)


class VersionedRBTree(_RBEngine):
    """Versioned RB tree: overlay-buffered writer + snapshot readers."""

    def __init__(
        self,
        machine: Machine,
        initial_keys: list[int],
        capacity: int,
        ticket_init_version: int = FIRST_TASK_ID,
    ):
        super().__init__()
        self.m = machine
        heap = machine.heap
        self.capacity = capacity
        self.key_base = heap.alloc(16 * capacity, align=64)
        self.child_base = heap.alloc_versioned(2 * capacity)
        self.root_addr = heap.alloc_versioned(1)
        self.ticket_addr = heap.alloc_versioned(1)
        machine.manager.register_root(self.ticket_addr)
        self.n_nodes = 1
        # Writer-task context (valid only between _begin_write/_commit).
        self._overlay: dict[int, int] | None = None
        self._tid = 0

        # Pre-populate functionally: build a balanced tree, color it so RB
        # invariants hold (all-black perfect levels; deepest level red).
        mgr = machine.manager
        keys = sorted(set(initial_keys))
        import math

        depth_limit = int(math.log2(len(keys) + 1)) if keys else 0

        def build(lo: int, hi: int, depth: int, parent: int) -> int:
            if lo >= hi:
                return 0
            mid = (lo + hi) // 2
            nid = self._alloc_node_functional(keys[mid])
            self.color[nid] = RED if depth >= depth_limit else BLACK
            self.parent[nid] = parent
            mgr.store_version(0, self.left_vaddr(nid), 0, build(lo, mid, depth + 1, nid))
            mgr.store_version(0, self.right_vaddr(nid), 0, build(mid + 1, hi, depth + 1, nid))
            return nid

        root = build(0, len(keys), 0, 0)
        if root:
            self.color[root] = BLACK
        mgr.store_version(0, self.root_addr, 0, root)
        mgr.store_version(0, self.ticket_addr, ticket_init_version, 0)

    # -- layout ------------------------------------------------------------

    def key_addr(self, nid: int) -> int:
        return self.key_base + 16 * nid

    def left_vaddr(self, nid: int) -> int:
        return self.child_base + 8 * nid

    def right_vaddr(self, nid: int) -> int:
        return self.child_base + 8 * nid + 4

    def _field_vaddr(self, field) -> int:
        if field == "root":
            return self.root_addr
        nid, side = field
        return self.left_vaddr(nid) if side == "l" else self.right_vaddr(nid)

    def _alloc_node_functional(self, key: int) -> int:
        nid = self.n_nodes
        if nid >= self.capacity:
            raise ConfigError("node pool exhausted")
        self.n_nodes += 1
        self.m.mem[self.key_addr(nid)] = key
        return nid

    # -- adapter (writer) -----------------------------------------------------

    def _read(self, field) -> Generator:
        vaddr = self._field_vaddr(field)
        if self._overlay is not None and vaddr in self._overlay:
            yield isa.compute(META_COMPUTE)  # store-buffer forwarding
            return self._overlay[vaddr]
        _, value = yield isa.load_latest(vaddr, self._tid)
        return value

    def _write(self, field, value: int) -> Generator:
        assert self._overlay is not None, "writes only inside a writer task"
        yield isa.compute(META_COMPUTE)
        self._overlay[self._field_vaddr(field)] = value

    def _alloc(self, key: int) -> Generator:
        yield isa.compute(ALLOC_COMPUTE)
        nid = self._alloc_node_functional(key)
        yield isa.store(self.key_addr(nid), key)
        # Fresh children start null; commit writes them as version tid.
        self._overlay[self.left_vaddr(nid)] = 0
        self._overlay[self.right_vaddr(nid)] = 0
        return nid

    def _key(self, nid: int) -> Generator:
        k = yield isa.load(self.key_addr(nid))
        return k

    # -- writer tasks -------------------------------------------------------------

    def _writer_task(self, tid: int, key: int, is_insert: bool, rename_to: int) -> Generator:
        yield isa.lock_load_version(self.ticket_addr, tid)
        self._overlay = {}
        self._tid = tid
        try:
            if is_insert:
                result = yield from self.insert(key)
            else:
                result = yield from self.delete(key)
            for vaddr, value in self._overlay.items():
                yield isa.store_version(vaddr, tid, value)
        finally:
            self._overlay = None
        yield isa.unlock_version(self.ticket_addr, tid, rename_to)
        return result

    def insert_task(self, tid: int, key: int, rename_to: int) -> Generator:
        return self._writer_task(tid, key, is_insert=True, rename_to=rename_to)

    def delete_task(self, tid: int, key: int, rename_to: int) -> Generator:
        return self._writer_task(tid, key, is_insert=False, rename_to=rename_to)

    # -- reader task ------------------------------------------------------------

    def lookup_task(self, tid: int, key: int, entry: tuple) -> Generator:
        if entry[0] == ENTER_LOAD:
            yield isa.load_version(self.ticket_addr, entry[1])
        _, cur = yield isa.load_latest(self.root_addr, tid)
        while cur:
            yield isa.compute(HOP_COMPUTE)
            k = yield isa.load(self.key_addr(cur))
            if k == key:
                return True
            vaddr = self.right_vaddr(cur) if key > k else self.left_vaddr(cur)
            _, cur = yield isa.load_latest(vaddr, tid)
        return False

    # -- inspection ----------------------------------------------------------------

    def _latest(self, vaddr: int, cap: int = 1 << 31) -> int:
        lst = self.m.manager.lists.get(vaddr)
        if lst is None or lst.head is None:
            return 0
        block, _ = lst.find_latest(cap)
        return block.value if block else 0

    def snapshot(self, cap: int = 1 << 31) -> list[int]:
        out: list[int] = []

        def walk(nid: int) -> None:
            if not nid:
                return
            walk(self._latest(self.left_vaddr(nid), cap))
            out.append(self.m.mem[self.key_addr(nid)])
            walk(self._latest(self.right_vaddr(nid), cap))

        walk(self._latest(self.root_addr, cap))
        return out

    def check_invariants(self) -> int:
        return self.check_rb_invariants(
            self._latest(self.root_addr),
            lambda n: self._latest(self.left_vaddr(n)),
            lambda n: self._latest(self.right_vaddr(n)),
        )


class UnversionedRBTree(_RBEngine):
    """Conventional-memory RB tree reusing the same CLRS engine."""

    def __init__(self, machine: Machine, initial_keys: list[int], capacity: int):
        super().__init__()
        self.m = machine
        self.capacity = capacity
        self.base = machine.heap.alloc(16 * capacity, align=64)
        self.root_addr = machine.heap.alloc(8, align=8)
        self.n_nodes = 1
        mem = machine.mem
        keys = sorted(set(initial_keys))
        import math

        depth_limit = int(math.log2(len(keys) + 1)) if keys else 0

        def build(lo: int, hi: int, depth: int, parent: int) -> int:
            if lo >= hi:
                return 0
            mid = (lo + hi) // 2
            nid = self.n_nodes
            self.n_nodes += 1
            mem[self.key_addr(nid)] = keys[mid]
            self.color[nid] = RED if depth >= depth_limit else BLACK
            self.parent[nid] = parent
            mem[self.left_addr(nid)] = build(lo, mid, depth + 1, nid)
            mem[self.right_addr(nid)] = build(mid + 1, hi, depth + 1, nid)
            return nid

        root = build(0, len(keys), 0, 0)
        if root:
            self.color[root] = BLACK
        mem[self.root_addr] = root

    def key_addr(self, nid: int) -> int:
        return self.base + 16 * nid

    def left_addr(self, nid: int) -> int:
        return self.base + 16 * nid + 8

    def right_addr(self, nid: int) -> int:
        return self.base + 16 * nid + 12

    def _field_addr(self, field) -> int:
        if field == "root":
            return self.root_addr
        nid, side = field
        return self.left_addr(nid) if side == "l" else self.right_addr(nid)

    def _read(self, field) -> Generator:
        value = yield isa.load(self._field_addr(field))
        return value

    def _write(self, field, value: int) -> Generator:
        yield isa.store(self._field_addr(field), value)

    def _alloc(self, key: int) -> Generator:
        yield isa.compute(ALLOC_COMPUTE)
        nid = self.n_nodes
        if nid >= self.capacity:
            raise ConfigError("node pool exhausted")
        self.n_nodes += 1
        yield isa.store(self.key_addr(nid), key)
        yield isa.store(self.left_addr(nid), 0)
        yield isa.store(self.right_addr(nid), 0)
        return nid

    def _key(self, nid: int) -> Generator:
        k = yield isa.load(self.key_addr(nid))
        return k

    def lookup(self, key: int) -> Generator:
        cur = yield isa.load(self.root_addr)
        while cur:
            yield isa.compute(HOP_COMPUTE)
            k = yield isa.load(self.key_addr(cur))
            if k == key:
                return True
            cur = yield isa.load(self.right_addr(cur) if key > k else self.left_addr(cur))
        return False

    def program(self, ops: list[tuple[str, int, int]]) -> Generator:
        results = []
        for op, key, _ in ops:
            if op == LOOKUP:
                results.append((yield from self.lookup(key)))
            elif op == INSERT:
                results.append((yield from self.insert(key)))
            elif op == DELETE:
                results.append((yield from self.delete(key)))
            else:
                raise ConfigError(f"red-black tree does not support {op!r}")
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

    def check_invariants(self) -> int:
        mem = self.m.mem
        return self.check_rb_invariants(
            mem.get(self.root_addr, 0),
            lambda n: mem.get(self.left_addr(n), 0),
            lambda n: mem.get(self.right_addr(n), 0),
        )


# -- variant runners ------------------------------------------------------------------


def _capacity(initial: list[int], ops: list[tuple[str, int, int]]) -> int:
    return len(initial) + sum(1 for o in ops if o[0] == INSERT) + 2


def run_unversioned(
    config: MachineConfig, initial: list[int], ops: list[tuple[str, int, int]]
) -> WorkloadRun:
    def setup(machine):
        return UnversionedRBTree(machine, initial, _capacity(initial, ops))

    def make_tasks(machine, tree):
        def body(tid):
            return (yield from tree.program(ops))

        return [Task(0, body, label="rb-seq")]

    cfg = config.with_cores(1)
    run = run_variant(
        "rb_tree", "unversioned", cfg, setup, make_tasks, lambda m, t: t.snapshot()
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
        return VersionedRBTree(
            machine, initial, _capacity(initial, ops),
            ticket_init_version=init_version,
        )

    def make_tasks(machine, tree):
        tasks = []
        for i, (op, key, _) in enumerate(ops):
            tid = FIRST_TASK_ID + i
            plan = plans[i]
            if op == LOOKUP:
                tasks.append(Task(tid, tree.lookup_task, key, plan, label="rb-lookup"))
            elif op == INSERT:
                tasks.append(Task(tid, tree.insert_task, key, plan[2], label="rb-insert"))
            elif op == DELETE:
                tasks.append(Task(tid, tree.delete_task, key, plan[2], label="rb-delete"))
            else:
                raise ConfigError(f"red-black tree does not support {op!r}")
        return tasks

    cfg = config.with_cores(num_cores)
    variant = "versioned-seq" if num_cores == 1 else f"versioned-{num_cores}c"
    return run_variant(
        "rb_tree", variant, cfg, setup, make_tasks, lambda m, t: t.snapshot()
    )
