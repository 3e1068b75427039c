"""End-to-end benchmark of the O-structure reproduction.

Five workloads — four simulator baskets and the network service — each
measured end to end, plus a traced run that attributes the time to the
layers (see README.md in this directory).  Run from the repository root:

    python3 benchmarks/e2e/run.py --workload versioned_1c --seed 7 --seconds 20
    python3 benchmarks/e2e/run.py --workload serve_write_heavy --trace 1
    python3 benchmarks/e2e/run.py            # every workload, one process each

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The exit status is 1 when any operation failed or any output was wrong,
and 2 (with no result line) when the program under test cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

DEFAULT_SEED = 20180523
DEFAULT_SECONDS = 20
#: Fresh set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Timed passes over a simulator basket, at least.
MIN_PASSES = 5
#: A run stops starting passes after this long, whatever MIN_PASSES says.
MAX_SECONDS = 120.0
#: Share of ``--seconds`` spent in the serve open- and closed-loop phases.
OPEN_SHARE, CLOSED_SHARE = 0.6, 0.4

SIM_WORKLOADS = (
    "seq_unversioned", "versioned_1c", "versioned_32c_read", "versioned_32c_write",
)
SERVE_WORKLOAD = "serve_write_heavy"
WORKLOADS = SIM_WORKLOADS + (SERVE_WORKLOAD,)

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "rate_per_s": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER = {
    "sim.cycles": "cycles",
    "engine.self_s": "s",
    "engine.events": "count",
    "engine.ns_per_event": "ns",
    "core.self_s": "s",
    "core.per_op_dispatches": "count",
    "fuse.self_s": "s",
    "fuse.ops": "count",
    "fuse.fused_ops": "count",
    "fuse.event_breaks": "count",
    "fuse.useful_ratio": "fraction",
    "manager.self_s": "s",
    "manager.ops": "count",
    "manager.ns_per_op": "ns",
    "manager.direct_hit_ratio": "fraction",
    "manager.walk_blocks": "count",
    "manager.stalls": "count",
    "manager.stall_cycles": "cycles",
    "hierarchy.self_s": "s",
    "hierarchy.accesses": "count",
    "hierarchy.l1_miss_ratio": "fraction",
    "hierarchy.invalidations": "count",
    "gc.self_s": "s",
    "gc.phases": "count",
    "gc.reclaimed": "count",
    "gc.reclaim_ratio": "fraction",
    "gc.refills": "count",
    "machine.builds": "count",
    "machine.build_ms": "ms",
    "machine.build_share": "fraction",
    "workloads.self_s": "s",
    "protocol.self_s": "s",
    "protocol.us_per_request": "us",
    "store.self_s": "s",
    "store.us_per_op": "us",
    "store.reclaim_s": "s",
    "store.reclaimed": "count",
    "server.residual_us": "us",
    "server.requests": "count",
    "server.shed": "count",
    "loadgen.lag_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def clean_env() -> dict[str, str]:
    """This process's environment without ``REPRO_*``, importing ``src``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def pin_environment() -> bool:
    """Clear ``REPRO_*`` and import the program from this checkout's ``src``."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2e: no program source under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        print(f"e2e: cannot import repro from {SRC}: {exc}", file=sys.stderr)
        return False
    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"e2e: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return False
    return True


def host_line() -> str:
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (
        f"host: python {sys.version.split()[0]}, nproc "
        f"{len(os.sched_getaffinity(0))}, load average {load}"
    )


# ---------------------------------------------------------------------------
# Statistics helpers
# ---------------------------------------------------------------------------


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (linear interpolation between samples)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


# ---------------------------------------------------------------------------
# Set-up time: fresh processes, median of several
# ---------------------------------------------------------------------------


def sim_setup_seconds(workload: str, seed: int, smoke: bool) -> float:
    """Spawn → imports, inputs and references built → exit, in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=clean_env(), capture_output=True,
                          text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
    return elapsed


def setup_seconds(workload: str, seed: int, smoke: bool,
                  server_cpus: set[int] | None = None) -> list[float]:
    repeats = 1 if smoke else SETUP_REPEATS
    if workload == SERVE_WORKLOAD:
        import servework

        return [servework.time_setup(ROOT, clean_env(), seed, server_cpus)
                for _ in range(repeats)]
    return [sim_setup_seconds(workload, seed, smoke) for _ in range(repeats)]


# ---------------------------------------------------------------------------
# Simulator workloads
# ---------------------------------------------------------------------------


def sim_passes(prepared, seconds: float, corrupt: bool) -> list:
    """Timed passes: at least MIN_PASSES, then while another fits in ``seconds``."""
    import simwork

    passes, walls = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(simwork.run_pass(prepared, corrupt=corrupt and not passes))
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed > MAX_SECONDS:
            break
        if len(passes) >= MIN_PASSES and elapsed + statistics.median(walls) > seconds:
            break
    return passes


def prepare_sim(args) -> list:
    import simwork

    prepared = simwork.prepare(args.workload, args.seed, args.smoke)
    # The inputs live for the whole run: keep them out of every collection
    # the timed runs trigger.
    gc.collect()
    gc.freeze()
    return prepared


def measure_sim(args) -> tuple[dict, int, list[str], list[str]]:
    setups = setup_seconds(args.workload, args.seed, args.smoke)
    prepared = prepare_sim(args)
    passes = sim_passes(prepared, args.seconds, args.inject_wrong_result)
    # A shared host's speed drifts by tens of percent within seconds, so
    # each run is timed by its best pass, as `repro bench` does; per-pass
    # rates are printed beside it.
    best = [min(p.run_seconds[i] for p in passes) for i in range(len(prepared))]
    cycles = sorted({p.cycles for p in passes})
    # A run's latency per unit of work: host ms per thousand simulated
    # cycles.  Raw run times would make the tail the largest run, whose
    # work changes with the seed's inputs, so its spread over seeds
    # exceeded the bound.
    ms_per_kcycle = [
        t * 1e6 / c for t, c in zip(best, passes[0].run_cycles) if c
    ] or [0.0]
    metrics = {
        "rate_per_s": cycles[0] / sum(best),
        "p50_ms": statistics.median(ms_per_kcycle),
        "p99_ms": percentile(ms_per_kcycle, 99),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    q1, q2, q3 = quartiles([p.cycles / p.seconds for p in passes])
    notes = [
        f"{len(passes)} passes of {len(prepared)} runs; sim_cycles per pass "
        f"{cycles[0] if len(cycles) == 1 else cycles}",
        f"simulated cycles per host second: best-of-passes {metrics['rate_per_s']:.0f}; "
        f"per pass median {q2:.0f}, quartiles {q1:.0f} .. {q3:.0f}",
        f"run latency per 1000 simulated cycles (best of {len(passes)} passes, "
        f"{len(best)} runs): p50 {metrics['p50_ms']:.3f} ms, p99 "
        f"{metrics['p99_ms']:.3f} ms; run times p50 "
        f"{statistics.median(best) * 1e3:.1f} ms, max {max(best) * 1e3:.1f} ms",
        f"set-up over {len(setups)} fresh processes: "
        + ", ".join(f"{s:.3f}" for s in setups) + " s",
    ]
    failures = [f for p in passes for f in p.failures]
    if len(cycles) != 1:
        failures.append(f"sim_cycles differ between passes: {cycles}")
    attempted = sum(p.runs for p in passes)
    return metrics, attempted, failures, notes


def trace_sim(args) -> tuple[dict, int, list[str], list[str], dict]:
    import simwork
    from layers import SpanRecorder, install_sim

    prepared = prepare_sim(args)
    reference = simwork.run_pass(prepared, count_machines=True)
    recorder = SpanRecorder()
    install_sim(recorder)
    try:
        traced = simwork.run_pass(
            prepared, count_machines=True,
            wrap=lambda fn: recorder.timed("workloads", fn, "run"),
        )
    finally:
        recorder.uninstall()
    spans = recorder.snapshot()
    failures = reference.failures + traced.failures
    if traced.counts != reference.counts:
        diff = {k: (reference.counts[k], traced.counts[k])
                for k in reference.counts if reference.counts[k] != traced.counts[k]}
        failures.append(f"traced pass changed counts (untraced, traced): {diff}")

    layer = spans["layers"]

    def self_s(name: str) -> float:
        return layer.get(name, {}).get("self_s", 0.0)

    def total_s(name: str) -> float:
        return layer.get(name, {}).get("total_s", 0.0)

    c = traced.counts
    lookups = c["direct_hits"] + c["full_lookups"]
    accesses = c["l1_hits"] + c["l1_misses"]
    metrics = dict.fromkeys(PER_LAYER, 0)
    metrics.update({
        "sim.cycles": c["cycles"],
        "engine.self_s": self_s("engine"),
        "engine.events": c["engine_events"],
        "engine.ns_per_event": ratio(self_s("engine") * 1e9, c["engine_events"]),
        "core.self_s": self_s("core"),
        "core.per_op_dispatches": spans["functions"].get("Core._dispatch", 0),
        "fuse.self_s": self_s("fuse"),
        "fuse.ops": c["fuse_ops"],
        "fuse.fused_ops": c["fuse_fused_ops"],
        "fuse.event_breaks": c["fuse_event_breaks"],
        "fuse.useful_ratio": ratio(c["fuse_fused_ops"], c["fuse_ops"]),
        "manager.self_s": self_s("manager"),
        "manager.ops": c["versioned_ops"],
        "manager.ns_per_op": ratio(self_s("manager") * 1e9, c["versioned_ops"]),
        "manager.direct_hit_ratio": ratio(c["direct_hits"], lookups),
        "manager.walk_blocks": c["lookup_blocks_visited"],
        "manager.stalls": c["versioned_stalls"],
        "manager.stall_cycles": c["versioned_stall_cycles"],
        "hierarchy.self_s": self_s("hierarchy"),
        "hierarchy.accesses": accesses,
        "hierarchy.l1_miss_ratio": ratio(c["l1_misses"], accesses),
        "hierarchy.invalidations": c["invalidations"],
        "gc.self_s": self_s("gc"),
        "gc.phases": c["gc_phases"],
        "gc.reclaimed": c["gc_reclaimed"],
        "gc.reclaim_ratio": ratio(c["gc_reclaimed"], c["shadowed_registered"]),
        "gc.refills": c["free_list_refills"],
        "machine.builds": c["machine_builds"],
        "machine.build_ms": ratio(total_s("machine") * 1e3, c["machine_builds"]),
        "machine.build_share": ratio(total_s("machine"), traced.seconds),
        "workloads.self_s": self_s("workloads"),
        "trace.overhead_ratio": ratio(traced.seconds, reference.seconds),
    })
    notes = [
        f"untraced pass {reference.seconds:.3f} s, traced pass {traced.seconds:.3f} s",
    ] + _layer_table(spans, traced.seconds)
    detail = {"counts": c, "untraced_pass_s": reference.seconds,
              "traced_pass_s": traced.seconds, "spans": spans}
    return metrics, 2 * len(prepared), failures, notes, detail


def _layer_table(spans: dict, pass_s: float) -> list[str]:
    rows = sorted(spans["layers"].items(), key=lambda kv: -kv[1]["self_s"])
    out = [
        f"{'layer':<14} {'calls':>10} {'total s':>9} {'raw self':>9} {'self s':>9} "
        f"{'self %':>7}  callers"
    ]
    for name, row in rows:
        callers = ", ".join(f"{p}:{n}" for p, n in sorted(row["callers"].items()))
        out.append(
            f"{name:<14} {row['calls']:>10} {row['total_s']:>9.4f} "
            f"{row['raw_self_s']:>9.4f} {row['self_s']:>9.4f} "
            f"{100 * ratio(row['self_s'], pass_s):>6.1f}%  {callers}"
        )
    out.append(
        f"wrapper bias per call: {spans['bias_in_s'] * 1e9:.0f} ns inside, "
        f"{spans['bias_out_s'] * 1e9:.0f} ns around (subtracted from self s)"
    )
    return out


# ---------------------------------------------------------------------------
# The serving workload
# ---------------------------------------------------------------------------


def _serve_run(args, seconds: float, cpus: set[int] | None, traced: bool = False):
    """One fresh server under both load phases; returns (result, failures, server)."""
    import servework

    rate = servework.SMOKE_RATE if args.smoke else servework.OPEN_RATE
    server = servework.ServerProcess(ROOT, clean_env(), traced=traced, cpus=cpus)
    try:
        result = servework.run_load(
            server, args.seed, OPEN_SHARE * seconds, CLOSED_SHARE * seconds, rate
        )
    finally:
        code = server.stop()
    failures = list(result.failures)
    if code != 0:
        failures.append(f"server exited with status {code}: {''.join(server.lines[-5:])}")
    if not (result.open_samples and result.closed_done):
        failures.append("a load phase completed no request")
    return result, failures, server


def best_rate(result) -> float:
    """Closed-loop ops per second in the best one-second window."""
    return max(result.closed_window_rates())


def measure_serve(args) -> tuple[dict, int, list[str], list[str]]:
    import servework

    cpus = servework.pin_client()
    setups = setup_seconds(args.workload, args.seed, args.smoke, cpus)
    result, failures, _ = _serve_run(args, args.seconds, cpus)
    if not (result.open_samples and result.closed_done):
        return dict.fromkeys(END_TO_END, 0.0), result.attempted, failures, []
    windows = result.latency_windows()
    rates = result.closed_window_rates()
    # Per one-second window, and the best window, since a shared host's
    # speed drifts within a run (as simulator runs take their best pass).
    metrics = {
        "rate_per_s": best_rate(result),
        "p50_ms": min(statistics.median(w) for w in windows),
        "p99_ms": min(percentile(w, 99) for w in windows),
        "setup_s": statistics.median(setups),
        # The server is the largest child this process has waited for.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    lat = [ms for _, ms in result.open_samples]
    notes = [
        f"open loop: {len(lat)} requests at {result.open_rate:.0f}/s in "
        f"{result.open_seconds:.2f} s, {len(windows)} windows; latency from the "
        f"due time over the whole phase p50 {statistics.median(lat):.3f} ms, p99 "
        f"{percentile(lat, 99):.3f} ms; generator lag p99 "
        f"{percentile(result.lag_ms, 99):.3f} ms",
        f"closed loop: {len(result.closed_done)} ops in {result.closed_seconds:.2f} s "
        f"over 2 connections, {len(rates)} windows, quartiles "
        + " .. ".join(f"{q:.0f}" for q in quartiles(rates)) + " ops/s",
        f"server: {result.stats.get('server', {})}",
        f"store: {result.stats.get('store', {})}",
        f"set-up over {len(setups)} fresh servers: "
        + ", ".join(f"{s:.3f}" for s in setups) + " s",
    ]
    return metrics, result.attempted, failures, notes


def trace_serve(args) -> tuple[dict, int, list[str], list[str], dict]:
    import servework

    cpus = servework.pin_client()
    # Two servers, untraced then traced, with half the time each.
    plain, failures, _ = _serve_run(args, args.seconds / 2, cpus)
    traced, traced_failures, server = _serve_run(args, args.seconds / 2, cpus, traced=True)
    failures += traced_failures
    spans = server.spans()
    if spans is None:
        failures.append("traced server printed no spans")
        spans = {"layers": {}, "functions": {}, "bias_in_s": 0.0, "bias_out_s": 0.0}
    layer = spans["layers"]

    def get(name: str, key: str) -> float:
        return layer.get(name, {}).get(key, 0.0)

    stats = traced.stats
    requests = stats.get("server", {}).get("requests", 0)
    server_side = get("protocol", "total_s") + get("store", "total_s")
    metrics = dict.fromkeys(PER_LAYER, 0)
    metrics.update({
        "protocol.self_s": get("protocol", "self_s"),
        "protocol.us_per_request": ratio(get("protocol", "self_s") * 1e6, requests),
        "store.self_s": get("store", "self_s"),
        "store.us_per_op": ratio(get("store", "total_s") * 1e6, get("store", "calls")),
        "store.reclaim_s": get("store.reclaim", "total_s"),
        "store.reclaimed": stats.get("store", {}).get("reclaimed_versions", 0),
        "server.residual_us": ratio(
            (traced.rtt_sum_s - server_side) * 1e6, traced.rtt_count
        ),
        "server.requests": requests,
        "server.shed": stats.get("server", {}).get("shed", 0),
        "loadgen.lag_ms": percentile(traced.lag_ms, 99) if traced.lag_ms else 0.0,
        "trace.overhead_ratio": ratio(best_rate(plain), best_rate(traced)),
    })
    notes = [
        f"closed loop, best 1-s window: untraced {best_rate(plain):.0f} ops/s, "
        f"traced {best_rate(traced):.0f} ops/s",
        f"client round trips: {traced.rtt_count}, mean "
        f"{ratio(traced.rtt_sum_s * 1e6, traced.rtt_count):.1f} us",
    ] + _layer_table(spans, traced.open_seconds + traced.closed_seconds)
    detail = {"stats": stats, "spans": spans}
    return metrics, plain.attempted + traced.attempted, failures, notes, detail


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def run_one(args) -> int:
    if not pin_environment():
        return 2
    print(host_line())
    serve = args.workload == SERVE_WORKLOAD
    if args.trace:
        fn = trace_serve if serve else trace_sim
        metrics, attempted, failures, notes, detail = fn(args)
        out = HERE / "out" / f"{args.workload}.spans.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, **detail}, indent=1
        ) + "\n")
        notes.append(f"spans written to {out.relative_to(ROOT)}")
        units = PER_LAYER
    else:
        fn = measure_serve if serve else measure_sim
        metrics, attempted, failures, notes = fn(args)
        units = END_TO_END
    for line in notes:
        print(line)
    for name, unit in units.items():
        print(f"{name:<26} {metrics[name]:>16.6g} {unit}")
    for failure in failures[:20]:
        print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Every workload in a fresh process, one at a time."""
    results, code = {}, 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        print(f"== {workload}", flush=True)
        proc = subprocess.run(cmd, cwd=ROOT, env=clean_env(), capture_output=True,
                              text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode == 2:
            return 2
        code = max(code, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        try:
            results[workload] = json.loads(lines[-1])
        except (IndexError, ValueError):  # the run died before its result
            results[workload] = None
            code = max(code, 1)
    print(json.dumps({"workloads": results}))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, print the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and short phases (self-test)")
    parser.add_argument("--inject-wrong-result", action="store_true",
                        help="self-test: corrupt one simulator result before "
                             "it is checked")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        if not pin_environment():
            return 2
        import simwork

        simwork.prepare(args.workload, args.seed, args.smoke)
        return 0
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
