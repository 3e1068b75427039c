"""``python -m repro trace``: record one workload run for analysis.

Runs a single workload variant with the full observability stack
attached — metrics registry, span recorder, op tracer — then
writes a Perfetto-loadable Chrome trace (``--perfetto``), a metrics
snapshot (``--metrics``), and prints the span summary, the rendered
metrics, and the critical-path analysis::

    python -m repro trace binary_tree --perfetto out.json --metrics m.json

The default free-list knobs (``--free-blocks 96 --watermark 64
--refill-blocks 256``) keep the version-block pool under pressure so the
garbage collector actually runs and the GC-lag histogram fills — the
same idea as the ``gc`` experiment.  ``--watchdog`` arms the live
deadlock watchdog (its recoveries appear on the trace's watchdog track)
and ``--fault KIND:AT[:VALUE[:ARG]]`` injects a deterministic fault plan
(see :mod:`repro.faults`), which is how a *deadlocking* or *recovering*
run is produced on purpose for timeline inspection — e.g.::

    python -m repro trace linked_list --mix 1R-1W --watchdog 2000 \
        --fault drop-wake:1:2 --perfetto hang.json

drops two consecutive waiter wake-ups, so the trace shows the stall, the
watchdog trip, and the kick that re-delivers the wake.

A run that deadlocks or exhausts the free list still exports everything
recorded up to the hang — the timeline of a deadlock is the point — and
exits non-zero after printing the wait-graph post-mortem.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from ..config import TABLE2
from ..errors import ConfigError, DeadlockError, FreeListExhausted
from ..faults import FaultSpec
from ..harness.presets import get_scale
from ..harness.report import format_metrics
from ..harness.sweeps import (
    MIXES,
    _IRREGULAR_MODULES,
    _REGULAR_MODULES,
    _run_irregular,
    _run_regular,
)
from ..sim.machine import add_machine_observer, remove_machine_observer
from ..workloads.opgen import READ_INTENSIVE
from .critpath import critical_path, format_critical_path
from .recorder import SpanRecorder

WORKLOADS = sorted(_IRREGULAR_MODULES) + sorted(_REGULAR_MODULES)


def _parse_fault(text: str) -> FaultSpec:
    """``KIND:AT[:SPAN[:VALUE[:ARG]]]`` → :class:`FaultSpec`.

    Field order matches the :class:`~repro.faults.FaultSpec` dataclass;
    trailing fields default like the dataclass does.
    """
    parts = text.split(":")
    kind = parts[0]
    try:
        nums = [int(p) for p in parts[1:]]
    except ValueError:
        raise ConfigError(f"fault spec {text!r}: trigger fields must be integers")
    if len(nums) > 4:
        raise ConfigError(f"fault spec {text!r}: too many fields")
    at = nums[0] if len(nums) > 0 else 1
    span = nums[1] if len(nums) > 1 else 1
    value = nums[2] if len(nums) > 2 else 0
    arg = nums[3] if len(nums) > 3 else 0
    return FaultSpec(kind, at=at, span=span, value=value, arg=arg)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Record one observable workload run (Perfetto + metrics).",
    )
    parser.add_argument("workload", choices=WORKLOADS, help="workload to run")
    parser.add_argument(
        "--perfetto", metavar="PATH",
        help="write a Chrome trace-event JSON (open at ui.perfetto.dev)",
    )
    parser.add_argument(
        "--metrics", metavar="PATH", help="write the metrics snapshot as JSON"
    )
    parser.add_argument(
        "--scale", default="quick", choices=("quick", "paper"),
        help="workload scale (default quick)",
    )
    parser.add_argument(
        "--cores", type=int, default=8, help="simulated cores (default 8)"
    )
    parser.add_argument(
        "--size", default="small", choices=("small", "large"),
        help="structure size preset (default small)",
    )
    parser.add_argument(
        "--mix", default=READ_INTENSIVE.name, choices=sorted(MIXES),
        help="op mix for the irregular structures",
    )
    parser.add_argument(
        "--ops", type=int, default=None, metavar="N",
        help="override the operation count of irregular workloads",
    )
    parser.add_argument(
        "--free-blocks", type=int, default=96, metavar="N",
        help="initial version-block free list (small => GC pressure)",
    )
    parser.add_argument(
        "--watermark", type=int, default=64, metavar="N",
        help="GC trigger watermark (default 64)",
    )
    parser.add_argument(
        "--refill-blocks", type=int, default=256, metavar="N",
        help="blocks per OS refill trap (small => recurring GC phases)",
    )
    parser.add_argument(
        "--watchdog", type=int, default=0, metavar="CYCLES",
        help="arm the live deadlock watchdog at this period (0 = off)",
    )
    parser.add_argument(
        "--fault", action="append", default=[], metavar="KIND:AT[:SPAN[:VALUE[:ARG]]]",
        help="inject a deterministic fault (repeatable); see repro.faults",
    )
    parser.add_argument(
        "--capacity", type=int, default=1 << 18, metavar="EVENTS",
        help="op-trace ring-buffer capacity (default 262144)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        faults = tuple(_parse_fault(text) for text in args.fault)
        config = dataclasses.replace(
            TABLE2,
            metrics=True,
            free_list_blocks=args.free_blocks,
            gc_watermark=args.watermark,
            refill_blocks=args.refill_blocks,
            watchdog_cycles=args.watchdog,
            faults=faults,
        )
    except ConfigError as exc:
        parser.error(str(exc))
    scale = get_scale(args.scale)

    # The workload builds its machine internally, so the recorder attaches
    # through a machine observer; `seen` also guards against a workload
    # constructing more than one machine (none do today).
    state: dict = {}

    def observe(machine) -> None:
        if "recorder" not in state:
            state["recorder"] = SpanRecorder(machine, capacity=args.capacity)

    add_machine_observer(observe)
    failure: str | None = None
    try:
        if args.workload in _IRREGULAR_MODULES:
            _run_irregular(
                args.workload, config, scale, args.size, MIXES[args.mix],
                "versioned", args.cores, args.ops,
            )
        else:
            _run_regular(
                args.workload, config, scale, args.size, "versioned", args.cores
            )
    except (DeadlockError, FreeListExhausted) as exc:
        failure = str(exc)
    finally:
        remove_machine_observer(observe)

    recorder: SpanRecorder | None = state.get("recorder")
    if recorder is None:
        print("no machine was built; nothing recorded", file=sys.stderr)
        return 2
    recorder.detach()  # also closes any spans a hang left open
    machine = recorder.machine

    if args.perfetto:
        from .perfetto import write_chrome_trace

        path = write_chrome_trace(recorder, args.perfetto)
        print(f"perfetto trace written to {path} (open at ui.perfetto.dev)")
    snapshot = machine.metrics.snapshot() if machine.metrics is not None else {}
    if args.metrics:
        with open(args.metrics, "w") as fh:
            json.dump(snapshot, fh, indent=2)
        print(f"metrics snapshot written to {args.metrics}")

    summary = recorder.summary()
    trace = summary.pop("trace")
    print(
        f"\n{args.workload} @ {args.cores} cores, {machine.sim.now} cycles: "
        + ", ".join(f"{k}={v}" for k, v in summary.items())
    )
    print(
        f"ops: recorded={trace['recorded']} buffered={trace['buffered']} "
        f"dropped={trace['dropped']} stalls={trace['buffered_stalled_ops']}"
    )
    print()
    print(format_critical_path(critical_path(recorder), recorder))
    print()
    print(format_metrics(snapshot, title=args.workload))

    if failure is not None:
        from ..sim import waitgraph

        print(f"\nRUN FAILED: {failure}", file=sys.stderr)
        print(waitgraph.post_mortem(machine), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
