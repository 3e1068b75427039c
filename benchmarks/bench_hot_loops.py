"""A/B micro-benchmarks for the simulator hot-loop optimisations.

The headline A/B pits the timing-wheel event kernel against the original
heapq-of-tuples kernel, reconstructed inline, so the win stays measurable
over time:

- **timing wheel vs heapq**: near-future events (cache latencies, waiter
  wake-ups — virtually everything a workload schedules) index into a
  256-slot bucket ring with an occupancy bitmask; far-future events heap
  into an overflow tier; a machine down to one pending event bypasses
  both.  The heapq arm pays O(log n) sift per event.  Both kernels honour
  the same ``(time, sequence)`` total order, asserted per pattern by
  comparing complete execution traces.
- **event drain**: ``Simulator.run()`` with no bounds takes a fast path
  with no per-event limit checks; ``run(max_events=N)`` walks the bounded
  peek-check-pop loop.  Same events, same result — the delta is pure loop
  overhead.
- **batched waiter wake-ups**: ``OStructureManager._notify`` schedules one
  event per notification instead of one event per waiter.  The A arm
  reproduces the old per-waiter scheme; the B arm drives the manager's
  own ``_schedule_wake``.  Callback order is asserted identical; the
  kernel sees K times fewer schedules.

Timing assertions are deliberately absent: CI boxes are noisy.  The
deterministic half of each A/B (identical behaviour, fewer kernel events)
is asserted; wall-clock goes to ``extra_info`` for BENCH_*.json trending.
"""

from __future__ import annotations

import heapq
import time

import pytest
from common import echo

from repro import Machine, MachineConfig
from repro.harness.report import format_table
from repro.sim.engine import Simulator

AB_EVENTS = 200_000
DRAIN_EVENTS = 200_000
WAKE_ROUNDS = 2_000
WAITERS = 16


class _HeapqSim:
    """The pre-wheel reference kernel: one heapq of (time, seq, fn)."""

    __slots__ = ("now", "_heap", "_seq", "executed_total")

    def __init__(self):
        self.now = 0
        self._heap = []
        self._seq = 0
        self.executed_total = 0

    def schedule(self, delay, fn):
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn))

    def run(self):
        heap = self._heap
        pop = heapq.heappop
        executed = 0
        while heap:
            t, _, fn = pop(heap)
            self.now = t
            fn()
            executed += 1
        self.executed_total += executed
        return executed


#: (pattern name, chains, latency cycle) — shaped like real machine runs:
#: L1/L2/DRAM latencies across many cores, with the occasional far-future
#: event that exercises the overflow heap tier, plus a solo chain for the
#: single-pending-event fast path.
PATTERNS = [
    ("64-chain mixed lat", 64, (4, 1, 2, 35, 120)),
    ("32-chain + overflow", 32, (4, 1, 2, 35, 120, 300)),
    ("8-chain L1-ish", 8, (4, 1, 2)),
    ("solo chain", 1, (4, 1, 2)),
]


def _drive(sim, chains: int, lats: tuple[int, ...], budget: int, trace: list):
    """Self-rescheduling callback chains; appends (now, chain) per event."""
    remaining = [budget]

    def make(chain_id: int):
        k = 0

        def cb():
            nonlocal k
            trace.append((sim.now, chain_id))
            if remaining[0] <= 0:
                return
            remaining[0] -= 1
            k += 1
            sim.schedule(lats[k % len(lats)], cb)

        return cb

    for c in range(chains):
        sim.schedule(c % 3, make(c))
    t0 = time.perf_counter()
    n = sim.run()
    return n, time.perf_counter() - t0


@pytest.mark.figure("hotloop")
def test_wheel_vs_heapq_kernel(run_once, benchmark):
    """Timing-wheel kernel vs the original heapq kernel, same event order."""

    def measure():
        rows = []
        for name, chains, lats in PATTERNS:
            heap_trace: list = []
            wheel_trace: list = []
            hn, hs = _drive(_HeapqSim(), chains, lats, AB_EVENTS, heap_trace)
            wn, ws = _drive(Simulator(), chains, lats, AB_EVENTS, wheel_trace)
            rows.append((name, hn, wn, heap_trace, wheel_trace, hs, ws))
        return rows

    rows = run_once(measure)
    table = []
    for name, hn, wn, heap_trace, wheel_trace, hs, ws in rows:
        # Order equivalence is the contract: both kernels must execute
        # the exact same (time, chain) sequence, not just the same set.
        assert hn == wn
        assert heap_trace == wheel_trace, f"{name}: kernels diverged in order"
        speedup = hs / ws
        benchmark.extra_info[f"heapq_s[{name}]"] = hs
        benchmark.extra_info[f"wheel_s[{name}]"] = ws
        benchmark.extra_info[f"speedup[{name}]"] = speedup
        table.append((name, wn, hn / hs / 1e6, wn / ws / 1e6, speedup))
    echo(format_table(
        ("pattern", "events", "heapq Mev/s", "wheel Mev/s", "speedup"),
        table,
        title="Event kernel A/B: timing wheel vs heapq",
        floatfmt="{:.2f}",
    ))


@pytest.mark.figure("hotloop")
def test_event_drain_fast_path(run_once, benchmark):
    """Unbounded drain (fast path) vs bounded drain (original loop)."""

    def build(n):
        sim = Simulator()
        nop = lambda: None
        for i in range(n):
            sim.schedule_at(i, nop)
        return sim

    def measure():
        sim = build(DRAIN_EVENTS)
        t0 = time.perf_counter()
        fast_n = sim.run()
        fast_s = time.perf_counter() - t0

        sim = build(DRAIN_EVENTS)
        t0 = time.perf_counter()
        slow_n = sim.run(max_events=DRAIN_EVENTS)
        slow_s = time.perf_counter() - t0
        return fast_n, slow_n, fast_s, slow_s

    fast_n, slow_n, fast_s, slow_s = run_once(measure)
    assert fast_n == slow_n == DRAIN_EVENTS
    benchmark.extra_info["fast_s"] = fast_s
    benchmark.extra_info["bounded_s"] = slow_s
    echo(format_table(
        ("loop", "events", "wall s", "Mevents/s"),
        [
            ("fast (unbounded)", fast_n, fast_s, fast_n / fast_s / 1e6),
            ("bounded (original)", slow_n, slow_s, slow_n / slow_s / 1e6),
        ],
        title="Event-drain loop A/B",
        floatfmt="{:.3f}",
    ))


@pytest.mark.figure("hotloop")
def test_batched_wakeups(run_once, benchmark):
    """The manager's one event per notification vs one event per waiter."""

    def run_arm(batched: bool):
        if batched:
            manager = Machine(MachineConfig(num_cores=1)).manager
            sim = manager.sim
        else:
            sim = Simulator()
        seq0 = sim._seq
        order: list[int] = []
        cbs = [lambda i=i: order.append(i) for i in range(WAITERS)]

        def notify():
            if batched:
                # A popped waiter list, as OStructureManager._notify
                # hands it over.
                manager._schedule_wake(list(cbs), 1)
            else:
                for cb in cbs:
                    sim.schedule(1, cb)

        for r in range(WAKE_ROUNDS):
            sim.schedule_at(10 * r, notify)
        t0 = time.perf_counter()
        sim.run()
        elapsed = time.perf_counter() - t0
        return order, sim._seq - seq0, elapsed

    def measure():
        return run_arm(batched=False), run_arm(batched=True)

    (old_order, old_seq, old_s), (new_order, new_seq, new_s) = run_once(measure)
    # Same callbacks, same order — only the kernel traffic differs.
    assert new_order == old_order
    assert len(new_order) == WAKE_ROUNDS * WAITERS
    assert old_seq - new_seq == WAKE_ROUNDS * (WAITERS - 1)

    benchmark.extra_info["per_waiter_s"] = old_s
    benchmark.extra_info["batched_s"] = new_s
    echo(format_table(
        ("scheme", "kernel schedules", "wall s"),
        [
            ("per-waiter (original)", old_seq, old_s),
            ("one event per notification", new_seq, new_s),
        ],
        title=f"Waiter wake-up A/B ({WAKE_ROUNDS} rounds x {WAITERS} waiters)",
        floatfmt="{:.3f}",
    ))
