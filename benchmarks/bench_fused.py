"""A/B micro-bench: the fused-block interpreter vs the per-op tier.

``MachineConfig(fused=...)`` selects an execution tier of the same
simulation — ``repro.sim.fuse`` retires runs of non-stalling ops in one
engine event instead of one schedule/pop round trip each.  Both halves
of the contract are measured here:

- **byte-identity** (asserted row by row): every A/B pair must produce
  character-identical ``RunResult`` rows — fusion may only change host
  time, never simulated behaviour.
- **throughput** (gated on the fusion-target basket): the Figure 6
  *unversioned sequential baselines* are end-to-end QUICK runs whose op
  streams are all ``compute``/``load``/``store`` — precisely the work
  fusion exists to accelerate — and the basket's aggregate wall-clock
  ratio must clear ``GATE_RATIO``.  Versioned rows are reported but not
  wall-clock-gated.  On one core, versioned ops that do not stall retire
  inside blocks too, but their host time is dominated by the O-structure
  manager calls, which fusion does not shorten.  On multi-core runs most
  inline advances are refused (another core's event is almost always
  due first), so the honest expectation there is parity.  Both are
  checked through the deterministic telemetry test below instead of a
  noise-sensitive timing bound.

Timing runs as interleaved fused/unfused pairs (best of ``PAIRS``) so
host frequency drift hits both arms alike.
"""

from __future__ import annotations

import gc
import json
import time

import pytest
from common import echo

from repro.config import TABLE2
from repro.harness.report import format_table
from repro.harness.sweeps import execute, irregular_spec, regular_spec
from repro.sim.machine import add_machine_observer, remove_machine_observer
from repro.workloads.opgen import READ_INTENSIVE

IRREGULAR = ("linked_list", "binary_tree", "hash_table", "rb_tree")
REGULAR = ("matmul", "levenshtein")

#: Required aggregate fused-vs-unfused speedup on the gated basket.
GATE_RATIO = 1.3

#: Interleaved A/B repetitions per spec (best-of).
PAIRS = 3


def _spec(bench: str, config, scale, variant: str, cores: int):
    if bench in IRREGULAR:
        return irregular_spec(
            bench, config, scale, "large", READ_INTENSIVE.name, variant, cores
        )
    return regular_spec(bench, config, scale, "large", variant, cores)


def _timed(spec) -> tuple[float, str]:
    gc.disable()
    t0 = time.perf_counter()
    result = execute(spec)
    elapsed = time.perf_counter() - t0
    gc.enable()
    gc.collect()
    return elapsed, json.dumps(result.to_json(), sort_keys=True)


def _ab(bench: str, scale, variant: str, cores: int) -> tuple[float, float]:
    """Best-of-PAIRS interleaved timing; asserts the rows byte-identical."""
    fused = _spec(bench, TABLE2.with_fused(True), scale, variant, cores)
    unfused = _spec(bench, TABLE2.with_fused(False), scale, variant, cores)
    best_f = best_u = float("inf")
    for _ in range(PAIRS):
        tf, row_f = _timed(fused)
        tu, row_u = _timed(unfused)
        assert row_f == row_u, (
            f"{bench}/{variant}-{cores}c: tiers diverged — fusion changed "
            f"simulated behaviour"
        )
        best_f = min(best_f, tf)
        best_u = min(best_u, tu)
    return best_f, best_u


@pytest.mark.figure("fused")
def test_fused_vs_per_op_quick_basket(run_once, benchmark, scale):
    """Byte-identity everywhere; >= GATE_RATIO on the fusion-target basket."""

    def measure():
        rows = []
        for bench in IRREGULAR + REGULAR:
            points = [
                ("unversioned", 1, True),
                ("versioned", 1, False),
                ("versioned", min(8, scale.max_cores), False),
            ]
            for variant, cores, gated in points:
                tf, tu = _ab(bench, scale, variant, cores)
                rows.append((bench, variant, cores, gated, tf, tu))
        return rows

    rows = run_once(measure)
    table = []
    gated_f = gated_u = all_f = all_u = 0.0
    for bench, variant, cores, gated, tf, tu in rows:
        label = f"{variant}-{cores}c" + (" *" if gated else "")
        table.append((bench, label, tf * 1e3, tu * 1e3, tu / tf))
        benchmark.extra_info[f"ratio[{bench}/{variant}-{cores}c]"] = tu / tf
        all_f += tf
        all_u += tu
        if gated:
            gated_f += tf
            gated_u += tu
    gate = gated_u / gated_f
    table.append(("TOTAL (gated *)", "", gated_f * 1e3, gated_u * 1e3, gate))
    table.append(("TOTAL (all)", "", all_f * 1e3, all_u * 1e3, all_u / all_f))
    benchmark.extra_info["gated_basket_ratio"] = gate
    echo(format_table(
        ("workload", "variant", "fused ms", "per-op ms", "ratio"),
        table,
        title="Macro-op fusion A/B (byte-identical rows; * = wall-clock gated)",
        floatfmt="{:.2f}",
    ))
    assert gate >= GATE_RATIO, (
        f"fusion-target basket only {gate:.2f}x (need {GATE_RATIO}x): the "
        f"fused tier lost its throughput win"
    )


@pytest.mark.figure("fused")
def test_fusion_telemetry_accounts_for_elided_round_trips(run_once, benchmark):
    """The deterministic half of the win: round trips actually elided.

    On the 1-core sequential runs — the conventional-memory baseline and
    the versioned linked list, whose versioned ops never stall there —
    nearly every retired op should flow through the interpreter with its
    engine round trip fused away.  On a fused run of any shape the
    FuseStats identity ``fused_ops == ops - event_breaks`` must hold.
    """

    def measure():
        from repro.harness.presets import get_scale

        scale = get_scale("quick")
        out = {}
        for variant in ("unversioned", "versioned"):
            caught = []
            add_machine_observer(caught.append)
            try:
                execute(_spec("linked_list", TABLE2, scale, variant, 1))
            finally:
                remove_machine_observer(caught.append)
            m = caught[-1]
            out[variant] = (m.fuse_stats.as_dict(), m.retired_ops, m.sim.executed_total)
        return out

    out = run_once(measure)
    for variant, (fs, retired, events) in out.items():
        benchmark.extra_info.update({f"{variant}.{k}": v for k, v in fs.items()})
        benchmark.extra_info[f"{variant}.engine_events"] = events
        assert fs["fused_ops"] == fs["ops"] - fs["event_breaks"]
        # Sequential ops, conventional or non-stalling versioned:
        # virtually everything fuses.
        assert fs["ops"] >= 0.9 * retired, variant
        assert fs["fused_ops"] >= 0.9 * fs["ops"], variant
        assert events <= 0.1 * retired, variant
