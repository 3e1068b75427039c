"""Chained dense matrix multiplication (Section IV-B).

The paper multiplies three dense matrices — ``R = (A @ B) @ C`` — where
the intermediate ``T = A @ B`` must not be consumed before it is produced.
Each element of ``T`` and ``R`` is written exactly once, so O-structures
act as I-structures: producers STORE-VERSION(1), consumers
LOAD-VERSION(1), which blocks until the element exists.  No renaming or
locking is needed, and the result is a dataflow pipeline between the two
multiply stages.

Tasks are matrix rows.  ``T``-row tasks and ``R``-row tasks interleave in
the submission order, so the static round-robin scheduler overlaps the
two stages: an ``R`` row starts as soon as the ``T`` elements its dot
products need exist.

Inputs ``A``, ``B``, ``C`` are conventional read-only arrays, preloaded
(their initialisation is not part of the measured region, as in the
paper).  The versioned single-thread run is ~2-3x slower than the
unversioned one purely from the versioned-operation overhead — the
Figure 6 observation.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from ..config import MachineConfig
from ..ostruct import isa
from ..runtime.task import Task
from ..sim.machine import Machine
from .base import FIRST_TASK_ID, WorkloadRun, run_variant

#: ALU cycles per multiply-accumulate step (mul + add + index arithmetic).
MAC_COMPUTE = 4


def make_inputs(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three dense n x n integer matrices (small values, exact arithmetic)."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 16, size=(n, n))
    b = rng.integers(0, 16, size=(n, n))
    c = rng.integers(0, 16, size=(n, n))
    return a, b, c


def reference(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return (a @ b) @ c


class MatmulWorkload:
    """Address layout and task bodies for one chained multiplication."""

    def __init__(
        self, machine: Machine, a: np.ndarray, b: np.ndarray, c: np.ndarray,
        versioned: bool,
    ):
        self.m = machine
        self.n = n = a.shape[0]
        self.versioned = versioned
        heap = machine.heap
        self.a_base = heap.alloc(4 * n * n, align=64)
        self.b_base = heap.alloc(4 * n * n, align=64)
        self.c_base = heap.alloc(4 * n * n, align=64)
        if versioned:
            self.t_base = heap.alloc_versioned(n * n)
            self.r_base = heap.alloc_versioned(n * n)
        else:
            self.t_base = heap.alloc(4 * n * n, align=64)
            self.r_base = heap.alloc(4 * n * n, align=64)
        mem = machine.mem
        for i in range(n):
            for j in range(n):
                mem[self.a_base + 4 * (i * n + j)] = int(a[i, j])
                mem[self.b_base + 4 * (i * n + j)] = int(b[i, j])
                mem[self.c_base + 4 * (i * n + j)] = int(c[i, j])

    def addr(self, base: int, i: int, j: int) -> int:
        return base + 4 * (i * self.n + j)

    # -- versioned task bodies ------------------------------------------------

    def t_row_task(self, tid: int, i: int) -> Generator:
        """Produce T[i, :] = A[i, :] @ B (store each element as version 1)."""
        n = self.n
        for j in range(n):
            acc = 0
            for k in range(n):
                av = yield isa.load(self.addr(self.a_base, i, k))
                bv = yield isa.load(self.addr(self.b_base, k, j))
                yield isa.compute(MAC_COMPUTE)
                acc += av * bv
            yield isa.store_version(self.addr(self.t_base, i, j), 1, acc)

    def r_row_task(self, tid: int, i: int) -> Generator:
        """Produce R[i, :] = T[i, :] @ C; blocks on unproduced T elements.

        A direct translation of the sequential inner loop: T is loaded
        per use with LOAD-VERSION (the first touch of each element may
        block until the producer row stores it; later touches are direct
        compressed-line hits).
        """
        n = self.n
        for j in range(n):
            acc = 0
            for k in range(n):
                tv = yield isa.load_version(self.addr(self.t_base, i, k), 1)
                cv = yield isa.load(self.addr(self.c_base, k, j))
                yield isa.compute(MAC_COMPUTE)
                acc += tv * cv
            yield isa.store_version(self.addr(self.r_base, i, j), 1, acc)
        return None

    # -- unversioned program ----------------------------------------------------

    def sequential_program(self, tid: int) -> Generator:
        n = self.n
        for i in range(n):
            for j in range(n):
                acc = 0
                for k in range(n):
                    av = yield isa.load(self.addr(self.a_base, i, k))
                    bv = yield isa.load(self.addr(self.b_base, k, j))
                    yield isa.compute(MAC_COMPUTE)
                    acc += av * bv
                yield isa.store(self.addr(self.t_base, i, j), acc)
        for i in range(n):
            for j in range(n):
                acc = 0
                for k in range(n):
                    tv = yield isa.load(self.addr(self.t_base, i, k))
                    cv = yield isa.load(self.addr(self.c_base, k, j))
                    yield isa.compute(MAC_COMPUTE)
                    acc += tv * cv
                yield isa.store(self.addr(self.r_base, i, j), acc)

    # -- inspection ----------------------------------------------------------------

    def result(self) -> np.ndarray:
        n = self.n
        out = np.zeros((n, n), dtype=np.int64)
        if self.versioned:
            mgr = self.m.manager
            for i in range(n):
                for j in range(n):
                    lst = mgr.lists.get(self.addr(self.r_base, i, j))
                    block, _ = lst.find_exact(1)
                    out[i, j] = block.value
        else:
            for i in range(n):
                for j in range(n):
                    out[i, j] = self.m.mem[self.addr(self.r_base, i, j)]
        return out


def run_unversioned(config: MachineConfig, n: int, seed: int = 11) -> WorkloadRun:
    a, b, c = make_inputs(n, seed)

    def setup(machine):
        return MatmulWorkload(machine, a, b, c, versioned=False)

    def make_tasks(machine, wl):
        return [Task(0, wl.sequential_program, label="matmul-seq")]

    cfg = config.with_cores(1)
    return run_variant(
        "matmul", "unversioned", cfg, setup, make_tasks, lambda m, wl: wl.result()
    )


def run_versioned(
    config: MachineConfig, n: int, num_cores: int, seed: int = 11
) -> WorkloadRun:
    a, b, c = make_inputs(n, seed)

    def setup(machine):
        return MatmulWorkload(machine, a, b, c, versioned=True)

    def make_tasks(machine, wl):
        # Interleave T-row and R-row tasks so the stages pipeline.
        tasks = []
        tid = FIRST_TASK_ID
        for i in range(n):
            tasks.append(Task(tid, wl.t_row_task, i, label="matmul-T"))
            tid += 1
            tasks.append(Task(tid, wl.r_row_task, i, label="matmul-R"))
            tid += 1
        return tasks

    cfg = config.with_cores(num_cores)
    variant = "versioned-seq" if num_cores == 1 else f"versioned-{num_cores}c"
    return run_variant(
        "matmul", variant, cfg, setup, make_tasks, lambda m, wl: wl.result()
    )
