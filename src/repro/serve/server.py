"""Asyncio TCP server exposing the sharded O-structure store.

Architecture: one asyncio event loop owns all sockets and framing and
runs every operation that cannot wait, the way the paper's pipeline
completes an O-structure op whose version is ready.  STORE-VERSION,
UNLOCK-VERSION, sessions and STATS never wait, so they run inline.  A
read or lock op first probes on the loop (the O-structures' ``try_*``
twins); a hit is answered at once.  Only a miss with a non-zero deadline
must park, like a core stalling on the address's waiter queue, and only
then is the blocking form handed to a **bounded** thread pool via
``run_in_executor`` (``ServerStats.parked`` counts these).  Each
connection multiplexes: requests are read continuously, dispatched
concurrently, and responses are matched by ``request_id`` — so one
connection can keep many operations in flight, which is what makes the
overload semantics below real rather than theoretical.

Three disciplines the rest of the repo already enforces elsewhere:

- **Deadlines, not hangs.**  Every request carries ``deadline_ms``; it
  maps directly onto the O-structure blocking ``timeout`` and an expiry
  surfaces as an ``ERR_TIMEOUT`` response carrying the structured
  :class:`~repro.sw.ostructure.SWTimeout` context (address, wanted
  version, current latest, lock holder).  ``deadline_ms == 0`` means
  "probe, don't wait": a missed probe answers ``ERR_VERSION_NOT_FOUND``
  where the blocking form would park.
- **Shed, don't queue unboundedly.**  Admission control counts in-flight
  requests; past ``max_inflight`` the server replies ``ERR_OVERLOAD``
  from the event loop without touching the pool.  A shed request costs
  one frame decode and one frame encode — the cheap-rejection property
  load-shedding exists for.
- **Drain, don't drop.**  :meth:`ServeServer.drain` stops the listener,
  answers new requests with ``ERR_SHUTTING_DOWN``, waits (bounded) for
  in-flight operations to finish, then closes the store, which ends any
  wait still parked (answered ``ERR_SHUTTING_DOWN``, its pool thread
  freed), and closes connections and the pool.
  Session frames left open by a disconnecting client are auto-ended so
  a vanished client cannot pin the reclamation floor forever.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from ..errors import (
    NotLockedError,
    ReproError,
    SimulationError,
    VersionExistsError,
)
from ..sw.ostructure import SWClosed, SWTimeout
from . import protocol as P
from .store import ShardedStore

#: Default per-request deadline when the client sends none.
DEFAULT_DEADLINE_MS = 5_000
#: Deadlines above this are clamped: a client must not pin a pool thread
#: for minutes on a version nobody will ever store.
MAX_DEADLINE_MS = 60_000
#: Seconds a drain that timed out waits for the ops its store close woke
#: to send their ``ERR_SHUTTING_DOWN`` answers.
CLOSE_GRACE_S = 1.0

#: The read/lock ops: opcode -> (selector field, takes a task id, probe
#: method, blocking method) on :class:`ShardedStore`.  The methods are
#: looked up by name per call, so a wrapper installed on the class sees
#: every call.
_READS = {
    P.OP_LOAD_VERSION: ("version", False, "probe_version", "load_version"),
    P.OP_LOAD_LATEST: ("cap", False, "probe_latest", "load_latest"),
    P.OP_LOCK_LOAD_VERSION: (
        "version", True, "probe_lock_version", "lock_load_version"
    ),
    P.OP_LOCK_LOAD_LATEST: ("cap", True, "probe_lock_latest", "lock_load_latest"),
}


class ServerStats:
    """Plain counters; mutated only on the event-loop thread."""

    __slots__ = (
        "connections_opened", "connections_closed", "requests",
        "responses_ok", "responses_error", "shed", "timeouts",
        "protocol_errors", "auto_ended_sessions", "drained_inflight",
        "parked",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class _Session:
    """Per-connection state: open task ids, for auto-end on disconnect."""

    __slots__ = ("open_tasks",)

    def __init__(self) -> None:
        self.open_tasks: set[int] = set()


def _want_int(body: dict[str, Any], field: str) -> int:
    value = body.get(field)
    if not isinstance(value, int) or isinstance(value, bool):
        raise P.ProtocolError(f"request field {field!r} must be an integer")
    return value


def _want_str(body: dict[str, Any], field: str) -> str:
    value = body.get(field)
    if not isinstance(value, str) or not value:
        raise P.ProtocolError(f"request field {field!r} must be a non-empty string")
    return value


class ServeServer:
    """The network front-end over one :class:`ShardedStore`."""

    def __init__(
        self,
        store: ShardedStore | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        threads: int = 8,
        max_inflight: int = 64,
        drain_timeout: float = 10.0,
    ):
        if threads <= 0 or max_inflight <= 0:
            raise SimulationError("threads and max_inflight must be positive")
        self.store = store if store is not None else ShardedStore()
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self.drain_timeout = drain_timeout
        self.stats = ServerStats()
        self._pool = ThreadPoolExecutor(
            max_workers=threads, thread_name_prefix="serve-op"
        )
        self._server: asyncio.AbstractServer | None = None
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._draining = False
        self._conn_tasks: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    @property
    def inflight(self) -> int:
        return self._inflight

    async def drain(self) -> bool:
        """Graceful shutdown; True if in-flight work finished in time.

        Closes the store: a wait on it fails from then on.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        clean = await self._wait_idle(self.drain_timeout)
        self.stats.drained_inflight = self._inflight
        # A wait still parked (past the drain timeout, or orphaned by a
        # client that left) would hold its pool thread, and so interpreter
        # exit, until its own deadline: closing the store ends it now.
        self.store.close()
        if not clean:
            await self._wait_idle(CLOSE_GRACE_S)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        for writer in list(self._writers):
            writer.close()
        self._pool.shutdown(wait=False, cancel_futures=True)
        return clean

    async def _wait_idle(self, timeout: float) -> bool:
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=timeout)
        except asyncio.TimeoutError:
            return False
        return True

    # -- connection handling -----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._conn_tasks.add(task)
        self._writers.add(writer)
        self.stats.connections_opened += 1
        session = _Session()
        decoder = P.FrameDecoder()
        write_lock = asyncio.Lock()
        dispatches: set[asyncio.Task] = set()
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                try:
                    messages = decoder.feed(data)
                except P.ProtocolError as exc:
                    self.stats.protocol_errors += 1
                    await self._send(
                        writer, write_lock,
                        P.encode_response(
                            P.ERR_BAD_REQUEST, 0, {"error": str(exc)}
                        ),
                    )
                    break  # framing is untrustworthy from here on
                for msg in messages:
                    if msg.kind != P.KIND_REQUEST:
                        self.stats.protocol_errors += 1
                        await self._send(
                            writer, write_lock,
                            P.encode_response(
                                P.ERR_BAD_REQUEST, msg.request_id,
                                {"error": "expected a request frame"},
                            ),
                        )
                        continue
                    t = asyncio.ensure_future(
                        self._serve_request(msg, session, writer, write_lock)
                    )
                    dispatches.add(t)
                    t.add_done_callback(dispatches.discard)
        except (asyncio.CancelledError, ConnectionError):
            pass
        finally:
            for t in list(dispatches):
                t.cancel()
            if dispatches:
                await asyncio.gather(*dispatches, return_exceptions=True)
            for task_id in sorted(session.open_tasks):
                self.store.task_end(task_id)
                self.stats.auto_ended_sessions += 1
            session.open_tasks.clear()
            self._writers.discard(writer)
            self._conn_tasks.discard(task)
            self.stats.connections_closed += 1
            writer.close()

    async def _send(
        self, writer: asyncio.StreamWriter, write_lock: asyncio.Lock, frame: bytes
    ) -> None:
        async with write_lock:
            if writer.is_closing():
                return
            writer.write(frame)
            try:
                await writer.drain()
            except ConnectionError:
                pass

    # -- request dispatch --------------------------------------------------

    async def _serve_request(
        self,
        msg: P.Message,
        session: _Session,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        self.stats.requests += 1
        if self._draining:
            await self._send(
                writer, write_lock,
                P.encode_response(
                    P.ERR_SHUTTING_DOWN, msg.request_id,
                    {"error": "server is draining"},
                ),
            )
            self.stats.responses_error += 1
            return
        if self._inflight >= self.max_inflight:
            # Admission control: cheap rejection from the event loop.
            self.stats.shed += 1
            self.stats.responses_error += 1
            await self._send(
                writer, write_lock,
                P.encode_response(
                    P.ERR_OVERLOAD, msg.request_id,
                    {"error": "server over capacity", "inflight": self._inflight},
                ),
            )
            return
        self._inflight += 1
        self._idle.clear()
        try:
            status, body = await self._execute(msg, session)
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()
        if status == P.OK:
            self.stats.responses_ok += 1
        else:
            self.stats.responses_error += 1
            if status == P.ERR_TIMEOUT:
                self.stats.timeouts += 1
        await self._send(
            writer, write_lock, P.encode_response(status, msg.request_id, body)
        )

    async def _execute(
        self, msg: P.Message, session: _Session
    ) -> tuple[int, dict[str, Any]]:
        """Run one op; returns (status, response body).  Never raises."""
        try:
            return await self._execute_op(msg, session)
        except P.ProtocolError as exc:
            return P.ERR_BAD_REQUEST, {"error": str(exc)}
        except SWTimeout as exc:
            return P.ERR_TIMEOUT, {"error": str(exc), "context": exc.context}
        except SWClosed as exc:
            return P.ERR_SHUTTING_DOWN, {"error": str(exc)}
        except VersionExistsError as exc:
            return P.ERR_VERSION_EXISTS, {"error": str(exc)}
        except NotLockedError as exc:
            return P.ERR_NOT_LOCKED, {"error": str(exc)}
        except ReproError as exc:
            return P.ERR_INTERNAL, {"error": str(exc)}

    async def _execute_op(
        self, msg: P.Message, session: _Session
    ) -> tuple[int, dict[str, Any]]:
        op, body = msg.code, msg.body
        if op == P.OP_PING:
            return P.OK, {}
        if op == P.OP_STATS:
            return P.OK, {"server": self.stats.snapshot(), "store": self.store.stats()}
        if op == P.OP_TASK_BEGIN:
            task_id = _want_int(body, "task")
            self.store.task_begin(task_id)
            session.open_tasks.add(task_id)
            return P.OK, {"floor": self.store.tracker.floor()}
        if op == P.OP_TASK_END:
            task_id = _want_int(body, "task")
            known = self.store.task_end(task_id)
            session.open_tasks.discard(task_id)
            if not known:
                return P.ERR_BAD_REQUEST, {"error": f"task {task_id} not live"}
            return P.OK, {"floor": self.store.tracker.floor()}

        key = _want_str(body, "key")
        deadline_ms = body.get("deadline_ms", DEFAULT_DEADLINE_MS)
        if not isinstance(deadline_ms, int) or isinstance(deadline_ms, bool) \
                or deadline_ms < 0:
            raise P.ProtocolError("deadline_ms must be a non-negative integer")
        timeout = min(deadline_ms, MAX_DEADLINE_MS) / 1000.0

        if op in _READS:
            field, locking, probe, wait = _READS[op]
            target = _want_int(body, field)
            args = (key, target, _want_int(body, "task")) if locking else (key, target)
            hit = getattr(self.store, probe)(*args)
            if hit is None and deadline_ms > 0:
                # Not ready: only now does the op need a thread to park on.
                self.stats.parked += 1
                got = await asyncio.get_running_loop().run_in_executor(
                    self._pool, getattr(self.store, wait), *args, timeout
                )
                hit = (got,) if field == "version" else got
            if hit is None:
                return P.ERR_VERSION_NOT_FOUND, {"key": key, field: target}
            if field == "version":
                return P.OK, {"version": target, "value": hit[0]}
            return P.OK, {"version": hit[0], "value": hit[1]}

        if op == P.OP_STORE_VERSION:
            version = _want_int(body, "version")
            if "value" not in body:
                raise P.ProtocolError("store-version requires a 'value' field")
            reclaimed = self.store.store_version(key, version, body["value"])
            return P.OK, {"version": version, "reclaimed": reclaimed}

        if op == P.OP_UNLOCK_VERSION:
            version = _want_int(body, "version")
            task_id = _want_int(body, "task")
            new_version = body.get("new_version")
            if new_version is not None and (
                not isinstance(new_version, int) or isinstance(new_version, bool)
            ):
                raise P.ProtocolError("new_version must be an integer when present")
            self.store.unlock_version(key, version, task_id, new_version)
            return P.OK, {"version": version, "new_version": new_version}

        raise P.ProtocolError(f"unknown opcode {op}")


async def start_server(**kwargs) -> ServeServer:
    """Build and start a :class:`ServeServer` (ephemeral port by default)."""
    server = ServeServer(**kwargs)
    await server.start()
    return server
