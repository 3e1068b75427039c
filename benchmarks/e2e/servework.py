"""The serving workload: ``repro serve`` in a subprocess under write_heavy load.

One fresh server process per run (``LoadGen.run`` seeds version 1 of
every key, so a second run against the same server would collide).  The
load comes from this process over at most two connections, in two
phases against the same server:

- **open loop** at a fixed rate: request ``i`` is due at
  ``start + i / rate`` and is sent then whether or not earlier requests
  have completed; its latency runs from the *due* time, so a stall of the
  generator or the server counts against every request it delays.  The
  generator's own lateness is reported separately.
- **closed loop**: two clients, each sending its next request when the
  previous one completes; completed ops per second is the throughput.

The op mix is loadgen's ``write_heavy`` (30% reads beside 70% stores).
Two logical streams split the version space the way loadgen's workers do
(``BASE_VERSION + n * 2 + stream``) and hold TASK-BEGIN/END sessions that
advance the server's reclamation floor, so watermark reclaim runs under
live readers.  Every read is checked with loadgen's ``ReadChecker``;
exact reads only target versions stored in the stream's current session,
which the session keeps above the floor.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.serve import protocol as P
from repro.serve.client import AsyncServeClient
from repro.serve.loadgen import BASE_VERSION, MIXES, NO_CAP, SETUP_VERSION, ReadChecker

HERE = Path(__file__).resolve().parent

MIX = MIXES["write_heavy"]
#: Server op threads and client connections: two, for a two-core host.
THREADS = 2
CONNECTIONS = 2
#: Per-shard stores between reclamation passes (the self-bench value).
WATERMARK = 24
#: Admission limit, far above what the load keeps in flight: a stall of
#: the shared host queues the open loop's requests, and shedding them
#: would turn a slow run into a failed one.
MAX_INFLIGHT = 4096
OPEN_RATE = 1000.0
SMOKE_RATE = 200.0
#: Both phases are summarised per window of this many seconds, so that
#: the least-interfered window can be reported: a shared host's speed
#: drifts within a run.
WINDOW_S = 1.0
#: Data ops per session before a stream rotates to a fresh one.
SESSION_EVERY = 32
DEADLINE_MS = 5_000
#: Prefix of the line the traced server prints its spans on.
SPANS_PREFIX = "E2E-SPANS "

_LISTENING = re.compile(r"listening on [^\s:]+:(\d+)")


def pin_client() -> set[int] | None:
    """Pin this process to one CPU; returns another CPU for the server.

    Left to the OS, the client and the server's busy thread sometimes
    share a core and sometimes do not, and closed-loop throughput flips
    between two levels almost 2x apart.  ``None`` on a one-CPU host, or
    where affinity cannot be set.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    try:
        os.sched_setaffinity(0, {cpus[0]})
    except OSError:
        return None
    return {cpus[1]}


class ServerProcess:
    """``python -m repro serve`` (or its traced twin) in a subprocess."""

    def __init__(self, root: Path, env: dict[str, str], traced: bool = False,
                 cpus: set[int] | None = None):
        entry = (
            [str(HERE / "traced_server.py")] if traced else ["-m", "repro", "serve"]
        )
        args = [
            "--host", "127.0.0.1", "--port", "0",
            "--threads", str(THREADS), "--watermark", str(WATERMARK),
            "--max-inflight", str(MAX_INFLIGHT),
        ]
        self.lines: list[str] = []
        self.port: int | None = None
        self._ready = threading.Event()
        self.proc = subprocess.Popen(
            [sys.executable, *entry, *args],
            cwd=root,
            env={**env, "PYTHONUNBUFFERED": "1"},
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        if cpus:
            # Before the server starts its op threads, which inherit it.
            try:
                os.sched_setaffinity(self.proc.pid, cpus)
            except OSError:
                pass  # exited already: the wait below reports it
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        if not self._ready.wait(timeout=60) or self.port is None:
            self.stop()
            raise RuntimeError(
                "server did not start:\n" + "".join(self.lines[-20:])
            )

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line)
            if self.port is None:
                m = _LISTENING.search(line)
                if m:
                    self.port = int(m.group(1))
                    self._ready.set()
        self._ready.set()

    def stop(self) -> int:
        """SIGINT (the server drains), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=10)
        return self.proc.returncode

    def spans(self) -> dict | None:
        for line in self.lines:
            if line.startswith(SPANS_PREFIX):
                return json.loads(line[len(SPANS_PREFIX):])
        return None


class _Session:
    __slots__ = ("tid", "inflight", "recent")

    def __init__(self, tid: int):
        self.tid = tid
        self.inflight: set[asyncio.Task] = set()
        #: Versions this session stored OK (safe exact reads).  A store
        #: still in flight when the stream rotates lands here, in the old
        #: session, whose versions the floor may pass once it ends.
        self.recent: dict[str, list[int]] = {}


class _Stream:
    """One logical client: a version partition and a session."""

    def __init__(self, index: int, seed: int):
        self.index = index
        self.rng = random.Random(f"{seed}:{MIX.name}:{index}")
        self.next_n = 0
        self.since_rotate = 0
        self.session = _Session(self.frontier())

    def frontier(self) -> int:
        return BASE_VERSION + self.next_n * CONNECTIONS + self.index

    def alloc(self) -> int:
        version = self.frontier()
        self.next_n += 1
        return version


@dataclass
class ServeResult:
    """Everything one serve run measured."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: perf_counter() when every key was seeded (the end of set-up).
    seeded_at: float = 0.0
    #: Open loop: ``(due time, latency from it in ms)`` per request, and
    #: the generator's lateness (ms) per send.
    open_rate: float = 0.0
    open_samples: list[tuple[float, float]] = field(default_factory=list)
    lag_ms: list[float] = field(default_factory=list)
    open_seconds: float = 0.0
    #: Closed loop: completion time of each op, from the phase start.
    closed_done: list[float] = field(default_factory=list)
    closed_seconds: float = 0.0
    #: Send-to-reply time of every request, for the traced residual.
    rtt_sum_s: float = 0.0
    rtt_count: int = 0
    stats: dict = field(default_factory=dict)

    @property
    def closed_ops_per_s(self) -> float:
        return len(self.closed_done) / self.closed_seconds if self.closed_seconds else 0.0

    def latency_windows(self) -> list[list[float]]:
        """Open-loop latencies (ms) in consecutive windows of due time."""
        per = max(1, int(self.open_rate * WINDOW_S))
        lat = [ms for _, ms in sorted(self.open_samples)]
        chunks = [lat[i:i + per] for i in range(0, len(lat), per)]
        return [c for c in chunks if len(c) == per] or chunks

    def closed_window_rates(self) -> list[float]:
        """Closed-loop completions per second in consecutive windows."""
        n = int(self.closed_seconds // WINDOW_S)
        if n == 0:
            return [self.closed_ops_per_s]
        counts = [0] * n
        for t in self.closed_done:
            if t < n * WINDOW_S:
                counts[int(t // WINDOW_S)] += 1
        return [c / WINDOW_S for c in counts]


class _LoadRunner:
    def __init__(self, client: AsyncServeClient, seed: int, result: ServeResult):
        self.client = client
        self.result = result
        self.checker = ReadChecker()
        self.keys = [f"{MIX.name}/k{i}" for i in range(MIX.keys)]
        ops = MIX.weighted_ops()
        self.names = [name for name, _ in ops]
        self.weights = [weight for _, weight in ops]
        self.streams = [_Stream(i, seed) for i in range(CONNECTIONS)]
        self.rotations: set[asyncio.Task] = set()

    async def request(
        self, op: int, body: dict, due: float | None = None
    ) -> P.Message | None:
        """One request; ``due`` (open loop) times its latency from then."""
        self.result.attempted += 1
        t0 = time.perf_counter()
        try:
            msg = await self.client.request_raw(op, body)
        except (ConnectionError, P.ProtocolError) as exc:
            self.result.failures.append(f"{P.OP_NAMES[op]}: {type(exc).__name__}: {exc}")
            return None
        t1 = time.perf_counter()
        self.result.rtt_sum_s += t1 - t0
        self.result.rtt_count += 1
        if due is not None:
            self.result.open_samples.append((due, (t1 - due) * 1e3))
        if msg.code != P.OK:
            self.result.failures.append(
                f"{P.OP_NAMES[op]}: {msg.status_name}: {msg.body.get('error', '')}"
            )
        return msg

    async def seed_keys(self) -> None:
        for key in self.keys:
            value = f"{key}#{SETUP_VERSION}"
            self.checker.record_store(key, SETUP_VERSION, value)
            await self.request(P.OP_STORE_VERSION,
                               {"key": key, "version": SETUP_VERSION, "value": value})
        for stream in self.streams:
            await self.request(P.OP_TASK_BEGIN, {"task": stream.session.tid})

    # -- one data op: chosen synchronously, executed asynchronously ---------

    def plan(self, stream: _Stream) -> tuple:
        """Pick the next op of ``stream`` (rotating its session when due)."""
        if stream.since_rotate >= SESSION_EVERY:
            stream.since_rotate = 0
            if stream.frontier() != stream.session.tid:
                old, stream.session = stream.session, _Session(stream.frontier())
                task = asyncio.ensure_future(self._rotate(stream.session, old))
                self.rotations.add(task)
                task.add_done_callback(self.rotations.discard)
        stream.since_rotate += 1
        op = stream.rng.choices(self.names, self.weights)[0]
        key = stream.rng.choice(self.keys)
        recent = stream.session.recent.get(key)
        if op == "read_exact" and recent:
            return ("read_exact", key, stream.rng.choice(recent))
        if op == "store":
            version = stream.alloc()
            value = f"{key}#{version}"
            # Record before sending: a read can never see an unknown version.
            self.checker.record_store(key, version, value)
            return ("store", key, version)
        return ("read_latest", key, None)

    async def _rotate(self, new: _Session, old: _Session) -> None:
        # Begin before end, and end only once the old session's ops are
        # done, so the floor never passes a version a live op may read.
        await self.request(P.OP_TASK_BEGIN, {"task": new.tid})
        if old.inflight:
            await asyncio.gather(*old.inflight, return_exceptions=True)
        await self.request(P.OP_TASK_END, {"task": old.tid})

    async def execute(
        self, session: _Session, planned: tuple, due: float | None = None
    ) -> None:
        kind, key, version = planned
        if kind == "store":
            msg = await self.request(
                P.OP_STORE_VERSION,
                {"key": key, "version": version, "value": f"{key}#{version}"},
                due,
            )
            if msg is not None and msg.code == P.OK:
                session.recent.setdefault(key, []).append(version)
            return
        if kind == "read_exact":
            body = {"key": key, "version": version, "deadline_ms": DEADLINE_MS}
            msg = await self.request(P.OP_LOAD_VERSION, body, due)
            cap = None
        else:
            body = {"key": key, "cap": NO_CAP, "deadline_ms": DEADLINE_MS}
            msg = await self.request(P.OP_LOAD_LATEST, body, due)
            cap = NO_CAP
        if msg is None or msg.code != P.OK:
            return
        got = msg.body.get("version")
        if version is not None and got != version:
            self.result.failures.append(f"load-version {key!r}: asked v{version}, got v{got}")
        self.checker.record_read(key, got, msg.body.get("value"), cap=cap, detail=kind)

    def launch(
        self, stream: _Stream, planned: tuple, due: float | None = None
    ) -> asyncio.Task:
        session = stream.session
        task = asyncio.ensure_future(self.execute(session, planned, due))
        session.inflight.add(task)
        task.add_done_callback(session.inflight.discard)
        return task

    # -- the two phases ---------------------------------------------------

    async def open_loop(self, rate: float, seconds: float) -> None:
        n = max(1, int(rate * seconds))
        lag = self.result.lag_ms
        self.result.open_rate = rate
        tasks = []
        start = time.perf_counter()
        for i in range(n):
            due = start + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lag.append((time.perf_counter() - due) * 1e3)
            stream = self.streams[i % CONNECTIONS]
            tasks.append(self.launch(stream, self.plan(stream), due))
        await asyncio.gather(*tasks)
        self.result.open_seconds = time.perf_counter() - start

    async def closed_loop(self, seconds: float) -> None:
        start = time.perf_counter()
        end = start + seconds
        done = self.result.closed_done

        async def worker(stream: _Stream) -> None:
            while time.perf_counter() < end:
                await self.launch(stream, self.plan(stream))
                done.append(time.perf_counter() - start)

        await asyncio.gather(*(worker(s) for s in self.streams))
        self.result.closed_seconds = time.perf_counter() - start

    async def finish(self) -> None:
        while self.rotations:
            await asyncio.gather(*list(self.rotations), return_exceptions=True)
        for stream in self.streams:
            await self.request(P.OP_TASK_END, {"task": stream.session.tid})
        msg = await self.request(P.OP_STATS, {})
        if msg is not None and msg.code == P.OK:
            self.result.stats = msg.body
        self.result.failures.extend(self.checker.violations())


async def _drive(port: int, seed: int, open_s: float, closed_s: float,
                 rate: float) -> ServeResult:
    result = ServeResult()
    async with AsyncServeClient("127.0.0.1", port, pool_size=CONNECTIONS) as client:
        load = _LoadRunner(client, seed, result)
        await load.seed_keys()
        result.seeded_at = time.perf_counter()
        if open_s > 0:
            await load.open_loop(rate, open_s)
        if closed_s > 0:
            await load.closed_loop(closed_s)
        await load.finish()
    return result


def run_load(server: ServerProcess, seed: int, open_s: float, closed_s: float,
             rate: float = OPEN_RATE) -> ServeResult:
    """Seed the keys, then run the open- and closed-loop phases."""
    return asyncio.run(_drive(server.port, seed, open_s, closed_s, rate))


def time_setup(root: Path, env: dict[str, str], seed: int,
               cpus: set[int] | None = None) -> float:
    """Seconds from spawning a fresh server until its keys are seeded."""
    t0 = time.perf_counter()
    server = ServerProcess(root, env, cpus=cpus)
    try:
        result = asyncio.run(_drive(server.port, seed, 0.0, 0.0, OPEN_RATE))
    finally:
        server.stop()
    if result.failures:
        raise RuntimeError(f"set-up failed: {result.failures[0]}")
    return result.seeded_at - t0
