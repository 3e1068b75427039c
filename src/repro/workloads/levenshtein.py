"""Levenshtein edit distance (Section IV-B).

The classic dynamic program: cell ``(i, j)`` depends on ``(i-1, j)``,
``(i, j-1)`` and ``(i-1, j-1)``.  Each cell is written once, so the DP
matrix is an array of I-structures: row tasks store their cells as
version 1 and LOAD-VERSION(1) on the previous row blocks until the
producer catches up — a wavefront pipeline across rows with no explicit
synchronisation.

Within a row the left neighbour is carried in a register (no memory op),
matching how the sequential code is "directly translated... augmented
with versioning to allow parallel execution".
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from ..config import MachineConfig
from ..ostruct import isa
from ..runtime.task import Task
from ..sim.machine import Machine
from .base import FIRST_TASK_ID, WorkloadRun, run_variant

#: ALU cycles per DP cell (two compares, min of three, add).
CELL_COMPUTE = 6

_ALPHABET = 8


def make_strings(n: int, seed: int) -> tuple[list[int], list[int]]:
    rng = np.random.default_rng(seed)
    return (
        [int(x) for x in rng.integers(0, _ALPHABET, size=n)],
        [int(x) for x in rng.integers(0, _ALPHABET, size=n)],
    )


def reference(s1: list[int], s2: list[int]) -> int:
    """NumPy rolling-row oracle."""
    prev = np.arange(len(s2) + 1)
    for i, ch in enumerate(s1, start=1):
        cur = np.empty_like(prev)
        cur[0] = i
        for j in range(1, len(s2) + 1):
            cost = 0 if ch == s2[j - 1] else 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
        prev = cur
    return int(prev[-1])


class LevenshteinWorkload:
    """DP matrix layout and task bodies."""

    def __init__(self, machine: Machine, s1: list[int], s2: list[int], versioned: bool):
        self.m = machine
        self.s1, self.s2 = s1, s2
        self.rows = len(s1) + 1
        self.cols = len(s2) + 1
        self.versioned = versioned
        heap = machine.heap
        self.s1_base = heap.alloc(4 * len(s1), align=64)
        self.s2_base = heap.alloc(4 * len(s2), align=64)
        if versioned:
            self.dp_base = heap.alloc_versioned(self.rows * self.cols)
        else:
            self.dp_base = heap.alloc(4 * self.rows * self.cols, align=64)
        mem = machine.mem
        for i, ch in enumerate(s1):
            mem[self.s1_base + 4 * i] = ch
        for j, ch in enumerate(s2):
            mem[self.s2_base + 4 * j] = ch

    def dp_addr(self, i: int, j: int) -> int:
        return self.dp_base + 4 * (i * self.cols + j)

    # -- versioned row task -----------------------------------------------------

    def row_task(self, tid: int, i: int) -> Generator:
        """Compute DP row ``i``; row 0 is the base case."""
        cols = self.cols
        if i == 0:
            for j in range(cols):
                yield isa.store_version(self.dp_addr(0, j), 1, j)
            return None
        ch = yield isa.load(self.s1_base + 4 * (i - 1))
        yield isa.store_version(self.dp_addr(i, 0), 1, i)
        left = i
        # The (i-1, j-1) value is carried across iterations: each step
        # loads only (i-1, j) and the s2 character.
        diag = yield isa.load_version(self.dp_addr(i - 1, 0), 1)
        for j in range(1, cols):
            up = yield isa.load_version(self.dp_addr(i - 1, j), 1)
            c2 = yield isa.load(self.s2_base + 4 * (j - 1))
            yield isa.compute(CELL_COMPUTE)
            cost = 0 if ch == c2 else 1
            val = min(up + 1, left + 1, diag + cost)
            yield isa.store_version(self.dp_addr(i, j), 1, val)
            diag = up
            left = val
        return left if i == self.rows - 1 else None

    # -- unversioned program -------------------------------------------------------

    def sequential_program(self, tid: int) -> Generator:
        cols = self.cols
        for j in range(cols):
            yield isa.store(self.dp_addr(0, j), j)
        result = 0
        for i in range(1, self.rows):
            ch = yield isa.load(self.s1_base + 4 * (i - 1))
            yield isa.store(self.dp_addr(i, 0), i)
            left = i
            diag = yield isa.load(self.dp_addr(i - 1, 0))
            for j in range(1, cols):
                up = yield isa.load(self.dp_addr(i - 1, j))
                c2 = yield isa.load(self.s2_base + 4 * (j - 1))
                yield isa.compute(CELL_COMPUTE)
                cost = 0 if ch == c2 else 1
                val = min(up + 1, left + 1, diag + cost)
                yield isa.store(self.dp_addr(i, j), val)
                diag = up
                left = val
            result = left
        return result


def run_unversioned(config: MachineConfig, n: int, seed: int = 13) -> WorkloadRun:
    s1, s2 = make_strings(n, seed)

    def setup(machine):
        return LevenshteinWorkload(machine, s1, s2, versioned=False)

    def make_tasks(machine, wl):
        return [Task(0, wl.sequential_program, label="lev-seq")]

    cfg = config.with_cores(1)
    run = run_variant("levenshtein", "unversioned", cfg, setup, make_tasks)
    run.final_state = run.results[0]
    return run


def run_versioned(
    config: MachineConfig, n: int, num_cores: int, seed: int = 13
) -> WorkloadRun:
    s1, s2 = make_strings(n, seed)

    def setup(machine):
        return LevenshteinWorkload(machine, s1, s2, versioned=True)

    def make_tasks(machine, wl):
        return [
            Task(FIRST_TASK_ID + i, wl.row_task, i, label=f"lev-row{i}")
            for i in range(wl.rows)
        ]

    cfg = config.with_cores(num_cores)
    variant = "versioned-seq" if num_cores == 1 else f"versioned-{num_cores}c"
    run = run_variant("levenshtein", variant, cfg, setup, make_tasks)
    run.final_state = run.results[-1]
    return run
