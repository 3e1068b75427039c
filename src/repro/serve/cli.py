"""``python -m repro serve`` / ``python -m repro loadgen``.

Three entry points:

- ``python -m repro serve --port 7270``: boot a server and run until
  interrupted (Ctrl-C drains gracefully).
- ``python -m repro loadgen --port 7270 --mix read_heavy``: drive a
  running server and print the latency/throughput table.
- ``python -m repro serve --self-bench --seed 0``: the one-command
  benchmark CI runs — boots a server in-process, drives all four mixes
  closed-loop plus one open-loop run, then an overload flood against a
  deliberately tiny server, and prints one row per run.  Exit status is
  the acceptance criterion: zero protocol errors, zero read-validity
  violations, zero timeouts in the five load runs, a non-zero shed count
  in the overload sub-test, and clean drains everywhere.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import Any

from ..harness.report import format_table
from .client import AsyncServeClient
from .loadgen import MIXES, LoadGen, LoadReport, flood
from .server import ServeServer
from .store import ShardedStore

#: Reclamation watermarks per self-bench mix: the storing mixes get one
#: so VBR-style dropping runs under live traffic; the snapshot and lock
#: mixes keep full history (scanners may hold arbitrarily old caps).
SELF_BENCH_WATERMARKS = {
    "read_heavy": 64,
    "write_heavy": 24,
    "lock_contention": 0,
    "snapshot_scan": 0,
}
#: Op threads of every self-bench server: as few as the end-to-end
#: benchmark's server has, so ops that park starving the rest would show
#: up here as timeouts.
SELF_BENCH_THREADS = 2


def _report_row(report: LoadReport) -> list[Any]:
    return [
        report.mix,
        report.mode,
        report.ops,
        report.ok,
        report.sheds,
        report.timeouts,
        report.protocol_errors,
        len(report.violations),
        report.reclaimed,
        report.throughput,
        report.quantile_ms(0.50),
        report.quantile_ms(0.95),
        report.quantile_ms(0.99),
    ]


_HEADERS = (
    "mix", "mode", "ops", "ok", "shed", "timeout", "proto_err",
    "violations", "reclaimed", "ops/s", "p50_ms", "p95_ms", "p99_ms",
)


async def _bench_one_mix(
    mix: str, *, seed: int, ops: int, clients: int,
    open_rate: float | None = None,
) -> tuple[LoadReport, bool, int]:
    """One mix against a fresh in-process server; returns (report, clean
    drain, server-side protocol errors)."""
    store = ShardedStore(
        num_shards=8, reclaim_watermark=SELF_BENCH_WATERMARKS.get(mix, 0)
    )
    server = ServeServer(store, threads=SELF_BENCH_THREADS, max_inflight=64)
    await server.start()
    try:
        gen = LoadGen(
            server.host, server.port, mix,
            seed=seed, ops=ops, clients=clients, open_rate=open_rate,
        )
        report = await gen.run()
    finally:
        clean = await server.drain()
    return report, clean, server.stats.protocol_errors


async def _bench_overload(*, seed: int) -> tuple[LoadReport, bool, bool]:
    """The overload sub-test: flood a tiny server, then prove liveness.

    Returns (flood report, server stayed live, clean drain).
    """
    server = ServeServer(
        ShardedStore(num_shards=2), threads=SELF_BENCH_THREADS, max_inflight=6
    )
    await server.start()
    live = False
    try:
        report = await flood(
            server.host, server.port,
            requests=64 + (seed % 7), deadline_ms=250, pool_size=4,
        )
        # The server must still answer normal traffic after the storm.
        async with AsyncServeClient(server.host, server.port, pool_size=1) as c:
            await c.store_version("after/storm", 1, "still-alive")
            live = (await c.load_version("after/storm", 1)) == "still-alive"
        report.sheds = max(report.sheds, server.stats.shed)
    finally:
        clean = await server.drain()
    return report, live, clean


async def _self_bench(seed: int, ops: int, clients: int) -> tuple[str, int]:
    rows: list[list[Any]] = []
    failures: list[str] = []

    # Four closed-loop runs, then one open-loop run (its latency includes
    # queueing delay).
    runs = [(mix, None) for mix in
            ("read_heavy", "write_heavy", "lock_contention", "snapshot_scan")]
    runs.append(("read_heavy", max(200.0, ops / 2)))
    for mix, open_rate in runs:
        report, clean, server_errors = await _bench_one_mix(
            mix, seed=seed, ops=ops, clients=clients, open_rate=open_rate
        )
        rows.append(_report_row(report))
        name = f"{mix}({report.mode})"
        if report.protocol_errors or server_errors:
            failures.append(
                f"{name}: {report.protocol_errors} client / "
                f"{server_errors} server protocol error(s)"
            )
        if report.violations:
            failures.append(
                f"{name}: {len(report.violations)} read-validity violation(s); "
                f"first: {report.violations[0]}"
            )
        if report.timeouts:
            failures.append(f"{name}: {report.timeouts} request(s) timed out")
        if not clean:
            failures.append(f"{name}: server did not drain cleanly")

    overload, live, clean = await _bench_overload(seed=seed)
    rows.append(_report_row(overload))
    if overload.sheds <= 0:
        failures.append("overload flood shed nothing — admission control inert")
    if overload.protocol_errors:
        failures.append(
            f"overload flood: {overload.protocol_errors} protocol error(s)"
        )
    if not live:
        failures.append("server did not answer normal traffic after the flood")
    if not clean:
        failures.append("overload server did not drain cleanly")

    text = format_table(
        _HEADERS, rows,
        title=f"repro.serve self-benchmark (seed {seed}, {ops} ops/mix, "
              f"{clients} clients)",
    )
    if failures:
        text += "\n\nFAILURES:\n" + "\n".join(f"  - {f}" for f in failures)
    else:
        text += (
            "\n\nall mixes clean: 0 protocol errors, 0 read-validity "
            "violations, 0 timeouts; overload shed "
            f"{overload.sheds} request(s) and drained cleanly"
        )
    return text, (1 if failures else 0)


async def _serve_forever(args) -> int:
    store = ShardedStore(
        num_shards=args.shards, reclaim_watermark=args.watermark
    )
    server = ServeServer(
        store, host=args.host, port=args.port,
        threads=args.threads, max_inflight=args.max_inflight,
    )
    await server.start()
    print(
        f"repro.serve listening on {server.host}:{server.port} "
        f"({args.shards} shards, {args.threads} op threads, "
        f"max {args.max_inflight} in flight)"
    )
    try:
        await asyncio.Event().wait()
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    finally:
        print("draining...")
        clean = await server.drain()
        print("drained cleanly" if clean else "drain timed out")
    return 0


def main_serve(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Serve the sharded O-structure store over TCP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7270)
    parser.add_argument("--shards", type=int, default=8)
    parser.add_argument("--threads", type=int, default=8,
                        help="threads that hold parked waits (ops that "
                             "cannot wait run on the event loop)")
    parser.add_argument("--max-inflight", type=int, default=64,
                        help="admission limit before OVERLOAD shedding")
    parser.add_argument("--watermark", type=int, default=0,
                        help="per-shard stores between reclamation passes "
                             "(0 = keep all versions)")
    parser.add_argument("--self-bench", action="store_true",
                        help="boot in-process, run all load mixes + the "
                             "overload sub-test, print the table, exit")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ops", type=int, default=600,
                        help="self-bench operations per mix")
    parser.add_argument("--clients", type=int, default=8)
    args = parser.parse_args(argv)

    if args.self_bench:
        text, code = asyncio.run(_self_bench(args.seed, args.ops, args.clients))
        print(text)
        return code
    try:
        return asyncio.run(_serve_forever(args))
    except KeyboardInterrupt:
        return 0


def main_loadgen(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro loadgen",
        description="Drive a running repro.serve server and report latency.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7270)
    parser.add_argument("--mix", default="read_heavy", choices=sorted(MIXES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ops", type=int, default=600)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--open-rate", type=float, default=None,
                        help="open-loop arrival rate in ops/s "
                             "(default: closed loop)")
    parser.add_argument("--deadline-ms", type=int, default=5000)
    args = parser.parse_args(argv)

    async def run() -> tuple[str, int]:
        gen = LoadGen(
            args.host, args.port, args.mix,
            seed=args.seed, ops=args.ops, clients=args.clients,
            open_rate=args.open_rate, deadline_ms=args.deadline_ms,
        )
        report = await gen.run()
        text = format_table(
            _HEADERS, [_report_row(report)],
            title=f"loadgen {args.mix} against {args.host}:{args.port}",
        )
        if report.violations:
            text += "\n\nread-validity violations:\n" + "\n".join(
                f"  - {v}" for v in report.violations[:20]
            )
        bad = report.protocol_errors or report.violations
        return text, (1 if bad else 0)

    text, code = asyncio.run(run())
    print(text)
    return code
