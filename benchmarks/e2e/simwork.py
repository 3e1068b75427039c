"""Simulator workloads of the end-to-end benchmark.

Each workload is a *basket* of simulation runs, driven through the
workload modules' public ``run_unversioned`` / ``run_versioned`` — no
``SweepRunner``, so no result cache and no process pool is involved.  A
*pass* runs the whole basket once; only the run calls are timed, and
every run is checked against its sequential reference outside the timed
region.  Inputs come from ``--seed`` at the QUICK shapes through the
public ``initial_keys`` / ``generate_ops``; with the default seed they
are exactly the inputs of the QUICK figure sweeps.
"""

from __future__ import annotations

import dataclasses
import gc
import time
import zlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.config import TABLE2
from repro.harness.presets import QUICK, Scale
from repro.sim.machine import add_machine_observer, remove_machine_observer
from repro.workloads import (
    binary_tree,
    hash_table,
    levenshtein,
    linked_list,
    matmul,
    opgen,
    rb_tree,
)

IRREGULAR = {
    "linked_list": linked_list,
    "binary_tree": binary_tree,
    "hash_table": hash_table,
    "rb_tree": rb_tree,
}
REGULAR = ("levenshtein", "matmul")
MIXES = {m.name: m for m in (opgen.READ_INTENSIVE, opgen.WRITE_INTENSIVE)}
SIZES = ("small", "large")

#: Section IV-F's tight free list, under which GC phases run.
GC_CONFIG = dataclasses.replace(
    TABLE2, num_cores=1, free_list_blocks=96, gc_watermark=64
)

#: Tiny shapes for the self-test (same baskets, a fraction of the work).
SMOKE = dataclasses.replace(
    QUICK, name="smoke", small_elements=12, large_elements=24, n_ops=16,
    matmul_small=3, matmul_large=4, lev_small=5, lev_large=8,
    gc_list_elements=6, gc_ops=40,
)


@dataclass(frozen=True)
class Item:
    """One simulation run of a basket."""

    bench: str
    size: str
    mix: str  # op mix name, "-" for the regular workloads, "gc" for IV-F
    variant: str  # "unversioned" or "versioned"
    cores: int = 1

    @property
    def label(self) -> str:
        return f"{self.bench}/{self.size}/{self.mix}/{self.variant}@{self.cores}c"


def basket(workload: str) -> list[Item]:
    """The runs of one pass of ``workload``."""
    irregular = list(IRREGULAR)
    if workload == "seq_unversioned":
        return [
            Item(b, s, m, "unversioned")
            for b in irregular for s in SIZES for m in MIXES
        ] + [Item(b, s, "-", "unversioned") for b in REGULAR for s in SIZES]
    if workload == "versioned_1c":
        return [Item(b, "large", "4R-1W", "versioned") for b in irregular] + [
            Item(b, "large", "-", "versioned") for b in REGULAR
        ]
    if workload == "versioned_32c_read":
        return [
            Item(b, s, "4R-1W", "versioned", 32) for b in irregular for s in SIZES
        ] + [Item(b, s, "-", "versioned", 32) for b in REGULAR for s in SIZES]
    if workload == "versioned_32c_write":
        return [
            Item(b, s, "1R-1W", "versioned", 32) for b in irregular for s in SIZES
        ] + [Item("linked_list", "gc", "gc", "versioned")]
    raise ValueError(f"unknown simulator workload {workload!r}")


def item_seed(seed: int, *coords: object) -> int:
    """Per-run input seed; the QUICK sweeps' rule, so seed 20180523 matches."""
    return (seed + zlib.crc32(repr(coords).encode())) % (1 << 31)


@dataclass
class Prepared:
    """A run with its inputs built and its reference result computed."""

    item: Item
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


def _irregular(item: Item, scale: Scale, seed: int) -> Prepared:
    mod = IRREGULAR[item.bench]
    if item.mix == "gc":
        config = GC_CONFIG
        elements, key_space = scale.gc_list_elements, scale.gc_list_elements * 8
        n_ops, mix = scale.gc_ops, opgen.WRITE_INTENSIVE
        s = item_seed(seed, "gc")
    else:
        config = TABLE2
        elements = scale.small_elements if item.size == "small" else scale.large_elements
        key_space = elements * scale.key_space_factor
        n_ops, mix = scale.n_ops, MIXES[item.mix]
        s = item_seed(seed, item.bench, item.size, item.mix)
    init = opgen.initial_keys(elements, key_space, s)
    ops = opgen.generate_ops(n_ops, mix, key_space, s)
    expected, final = opgen.reference_results(init, ops)

    if item.variant == "unversioned":
        def run():
            return mod.run_unversioned(config, init, ops)
    else:
        def run():
            return mod.run_versioned(config, init, ops, item.cores)

    def check(result) -> str | None:
        bad = sum(a != b for a, b in zip(result.results, expected))
        bad += abs(len(result.results) - len(expected))
        if bad:
            return f"{bad}/{len(expected)} op results differ from the reference"
        if list(result.final_state) != final:
            return "final contents differ from the reference"
        return None

    return Prepared(item, run, check)


def _regular(item: Item, scale: Scale, seed: int) -> Prepared:
    s = item_seed(seed, item.bench, item.size)
    if item.bench == "matmul":
        mod = matmul
        n = scale.matmul_small if item.size == "small" else scale.matmul_large
        expected = matmul.reference(*matmul.make_inputs(n, s))

        def same(got) -> bool:
            return bool(np.array_equal(got, expected))
    else:
        mod = levenshtein
        n = scale.lev_small if item.size == "small" else scale.lev_large
        expected = levenshtein.reference(*levenshtein.make_strings(n, s))

        def same(got) -> bool:
            return got == expected

    if item.variant == "unversioned":
        def run():
            return mod.run_unversioned(TABLE2, n, seed=s)
    else:
        def run():
            return mod.run_versioned(TABLE2, n, item.cores, seed=s)

    def check(result) -> str | None:
        return None if same(result.final_state) else "result differs from the reference"

    return Prepared(item, run, check)


def prepare(workload: str, seed: int, smoke: bool = False) -> list[Prepared]:
    """Build every input and reference of ``workload`` (the set-up)."""
    scale = SMOKE if smoke else QUICK
    return [
        _regular(item, scale, seed) if item.bench in REGULAR
        else _irregular(item, scale, seed)
        for item in basket(workload)
    ]


#: SimStats fields summed into a pass's counts.
STAT_FIELDS = (
    "cycles", "versioned_ops", "direct_hits", "full_lookups",
    "lookup_blocks_visited", "versioned_stalls", "versioned_stall_cycles",
    "l1_hits", "l1_misses", "invalidations", "gc_phases", "gc_reclaimed",
    "shadowed_registered", "free_list_refills",
)
FUSE_FIELDS = ("ops", "fused_ops", "event_breaks")


@dataclass
class PassResult:
    """One pass: timed run durations, failures and deterministic counts."""

    run_seconds: list[float]
    #: Simulated cycles of each run (0 for a run that raised).
    run_cycles: list[int]
    runs: int
    failures: list[str]
    counts: dict[str, int]

    @property
    def seconds(self) -> float:
        return sum(self.run_seconds)

    @property
    def cycles(self) -> int:
        return self.counts["cycles"]


def run_pass(
    prepared: list[Prepared],
    *,
    wrap: Callable[[Callable], Callable] | None = None,
    count_machines: bool = False,
    corrupt: bool = False,
) -> PassResult:
    """Run the basket once; ``wrap`` decorates each run call (tracing).

    Each timed run ends with a full garbage collection: the machine a run
    built is reference-cyclic, and collecting it inside the run's own
    timing charges every run for its garbage instead of whichever later
    run the collector happens to interrupt (and keeps peak memory to one
    machine at a time).  ``count_machines`` also collects the counts kept
    outside ``SimStats`` (engine events, fusion telemetry, machine builds)
    through a machine observer.  ``corrupt`` replaces the first run's
    result with a wrong one before it is checked (the self-test's failure
    injection).
    """
    machines: list = []
    observe = machines.append
    if count_machines:
        add_machine_observer(observe)
    counts = dict.fromkeys(STAT_FIELDS, 0)
    if count_machines:
        counts.update(dict.fromkeys(("engine_events", "machine_builds"), 0))
        counts.update({f"fuse_{f}": 0 for f in FUSE_FIELDS})
    times: list[float] = []
    run_cycles: list[int] = []
    failures: list[str] = []
    try:
        for i, p in enumerate(prepared):
            call = wrap(p.run) if wrap is not None else p.run
            t0 = time.perf_counter()
            try:
                result = call()
            except Exception as exc:  # a failed run is counted, not fatal
                result = exc
            gc.collect()
            times.append(time.perf_counter() - t0)
            if isinstance(result, Exception):
                failures.append(f"{p.item.label}: {type(result).__name__}: {result}")
                run_cycles.append(0)
                machines.clear()
                continue
            if corrupt and i == 0:
                result = dataclasses.replace(
                    result, results=[], final_state=None
                )
            problem = p.check(result)
            if problem:
                failures.append(f"{p.item.label}: {problem}")
            stats = result.stats
            run_cycles.append(stats.cycles)
            for f in STAT_FIELDS:
                counts[f] += getattr(stats, f)
            for m in machines:
                counts["engine_events"] += m.sim.executed_total
                counts["machine_builds"] += 1
                for f in FUSE_FIELDS:
                    counts[f"fuse_{f}"] += getattr(m.fuse_stats, f)
            machines.clear()
    finally:
        if count_machines:
            remove_machine_observer(observe)
    return PassResult(times, run_cycles, len(prepared), failures, counts)
